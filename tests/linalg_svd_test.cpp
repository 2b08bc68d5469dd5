// Tests for the one-sided Jacobi SVD.
#include "linalg/svd.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "linalg/hankel.h"

namespace funnel::linalg {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.gaussian();
  }
  return m;
}

void expect_orthonormal_columns(const Matrix& m, double tol = 1e-10) {
  for (std::size_t a = 0; a < m.cols(); ++a) {
    const Vector ca = m.col(a);
    const double na = norm2(ca);
    if (na < 0.5) continue;  // zero column for a null singular value
    for (std::size_t b = a; b < m.cols(); ++b) {
      const Vector cb = m.col(b);
      if (norm2(cb) < 0.5) continue;
      const double expected = a == b ? 1.0 : 0.0;
      EXPECT_NEAR(dot(ca, cb), expected, tol) << "columns " << a << "," << b;
    }
  }
}

TEST(JacobiSvd, DiagonalMatrix) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  const Svd s = jacobi_svd(a);
  ASSERT_EQ(s.singular_values.size(), 2u);
  EXPECT_NEAR(s.singular_values[0], 4.0, 1e-12);
  EXPECT_NEAR(s.singular_values[1], 3.0, 1e-12);
}

TEST(JacobiSvd, KnownRankOne) {
  // a = u * vᵀ with u = (1,2)ᵀ, v = (3,4)ᵀ: sigma_1 = |u||v| = sqrt(5)*5.
  const Matrix a{{3.0, 4.0}, {6.0, 8.0}};
  const Svd s = jacobi_svd(a);
  EXPECT_NEAR(s.singular_values[0], std::sqrt(5.0) * 5.0, 1e-10);
  EXPECT_NEAR(s.singular_values[1], 0.0, 1e-10);
}

TEST(JacobiSvd, SingularValuesSortedDescending) {
  Rng rng(3);
  const Svd s = jacobi_svd(random_matrix(8, 6, rng));
  for (std::size_t i = 1; i < s.singular_values.size(); ++i) {
    EXPECT_GE(s.singular_values[i - 1], s.singular_values[i]);
  }
}

TEST(JacobiSvd, EmptyThrows) {
  EXPECT_THROW((void)jacobi_svd(Matrix{}), InvalidArgument);
}

TEST(JacobiSvd, ZeroMatrix) {
  const Svd s = jacobi_svd(Matrix(3, 3));
  for (double v : s.singular_values) EXPECT_DOUBLE_EQ(v, 0.0);
}

// Property sweep over shapes: A == U S Vᵀ, factors orthonormal, and the
// singular values match the eigenvalues of AᵀA.
class SvdReconstruction
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SvdReconstruction, ReconstructsAndIsOrthonormal) {
  const auto [r, c] = GetParam();
  Rng rng(static_cast<std::uint64_t>(r * 31 + c));
  const Matrix a = random_matrix(static_cast<std::size_t>(r),
                                 static_cast<std::size_t>(c), rng);
  const Svd s = jacobi_svd(a);
  EXPECT_EQ(s.singular_values.size(),
            std::min(a.rows(), a.cols()));
  EXPECT_LT(max_abs_difference(reconstruct(s), a), 1e-9);
  expect_orthonormal_columns(s.u);
  expect_orthonormal_columns(s.v);
  for (double v : s.singular_values) EXPECT_GE(v, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdReconstruction,
    ::testing::Values(std::tuple{1, 1}, std::tuple{2, 2}, std::tuple{5, 3},
                      std::tuple{3, 5}, std::tuple{9, 9}, std::tuple{17, 9},
                      std::tuple{9, 17}, std::tuple{32, 8}));

TEST(JacobiSvd, RankDeficientReconstruction) {
  // Rank-2 4x4 matrix built from two outer products.
  Rng rng(11);
  Matrix a(4, 4);
  for (int rep = 0; rep < 2; ++rep) {
    Vector u(4), v(4);
    for (auto& x : u) x = rng.gaussian();
    for (auto& x : v) x = rng.gaussian();
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) a(i, j) += u[i] * v[j];
    }
  }
  const Svd s = jacobi_svd(a);
  EXPECT_LT(max_abs_difference(reconstruct(s), a), 1e-9);
  EXPECT_NEAR(s.singular_values[2], 0.0, 1e-9);
  EXPECT_NEAR(s.singular_values[3], 0.0, 1e-9);
}

TEST(JacobiSvd, ZeroOneHankelReturnsAtAnyScale) {
  // The 9x9 Hankel of this 0/1 series (the shape of an integer-valued KPI)
  // is rank deficient: the rotations leave null columns of rounding noise
  // that never turn orthogonal, so the sweep limit is reached. Noise is no
  // failure, and the decomposition must come back exact.
  const std::vector<double> series = {1, 0, 0, 1, 0, 1, 1, 0, 0,
                                      0, 1, 0, 1, 1, 0, 0, 0};
  for (const double scale : {1e-6, 1.0, 1e6}) {
    std::vector<double> scaled = series;
    for (double& x : scaled) x *= scale;
    const Matrix a = hankel(scaled, 9, 9);
    Svd s;
    ASSERT_NO_THROW(s = jacobi_svd(a)) << "scale " << scale;
    EXPECT_LT(max_abs_difference(reconstruct(s), a), 1e-12 * scale)
        << "scale " << scale;
    expect_orthonormal_columns(s.v);
  }
}

TEST(JacobiSvd, InvariantUnderScaling) {
  Rng rng(13);
  const Matrix a = random_matrix(6, 4, rng);
  Matrix b = a;
  for (std::size_t i = 0; i < b.data().size(); ++i) b.data()[i] *= 1e6;
  const Svd sa = jacobi_svd(a);
  const Svd sb = jacobi_svd(b);
  for (std::size_t i = 0; i < sa.singular_values.size(); ++i) {
    EXPECT_NEAR(sb.singular_values[i], 1e6 * sa.singular_values[i],
                1e-4 * sb.singular_values[0]);
  }
}

TEST(JacobiSvd, WideMatrixSwapsFactors) {
  Rng rng(17);
  const Matrix a = random_matrix(3, 7, rng);
  const Svd s = jacobi_svd(a);
  EXPECT_EQ(s.u.rows(), 3u);
  EXPECT_EQ(s.v.rows(), 7u);
  EXPECT_LT(max_abs_difference(reconstruct(s), a), 1e-9);
}

TEST(JacobiSvd, FrobeniusNormIdentity) {
  // ||A||_F^2 == sum of squared singular values.
  Rng rng(19);
  const Matrix a = random_matrix(7, 5, rng);
  double fro2 = 0.0;
  for (double v : a.data()) fro2 += v * v;
  const Svd s = jacobi_svd(a);
  double sum2 = 0.0;
  for (double v : s.singular_values) sum2 += v * v;
  EXPECT_NEAR(fro2, sum2, 1e-9 * fro2);
}

}  // namespace
}  // namespace funnel::linalg

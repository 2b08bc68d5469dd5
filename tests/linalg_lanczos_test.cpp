// Tests for Lanczos tridiagonalization and the implicit Hankel Gram
// operator — the numerical heart of FUNNEL's IKA fast path.
#include "linalg/lanczos.h"

#include <cmath>
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "linalg/hankel.h"
#include "linalg/sym_eigen.h"

namespace funnel::linalg {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a(n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 2 * n; ++j) a(i, j) = rng.gaussian();
  }
  return gram_rows(a);  // A·Aᵀ is SPD with probability 1
}

TEST(Hankel, BuildsLaggedColumns) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0, 5.0};
  const Matrix b = hankel(w, 3, 3);
  // column j = w[j..j+2]
  EXPECT_DOUBLE_EQ(b(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(b(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(b(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(b(2, 2), 5.0);
}

TEST(Hankel, ValidatesLength) {
  const std::vector<double> w{1.0, 2.0, 3.0};
  EXPECT_THROW((void)hankel(w, 3, 3), InvalidArgument);
  EXPECT_EQ(hankel_span(9, 9), 17u);
}

TEST(HankelGramOperator, MatchesExplicitGram) {
  Rng rng(1);
  for (const auto& [omega, count] :
       {std::pair<std::size_t, std::size_t>{3, 4}, {9, 9}, {5, 2}, {2, 8}}) {
    std::vector<double> w(hankel_span(omega, count));
    for (double& x : w) x = rng.gaussian();
    const Matrix b = hankel(w, omega, count);
    const Matrix g = gram_rows(b);
    const HankelGramOperator op(w, omega, count);
    EXPECT_EQ(op.dim(), omega);
    for (int rep = 0; rep < 3; ++rep) {
      Vector x(omega);
      for (double& v : x) v = rng.gaussian();
      Vector y(omega);
      op.apply(x, y);
      const Vector ref = matvec(g, x);
      for (std::size_t i = 0; i < omega; ++i) {
        EXPECT_NEAR(y[i], ref[i], 1e-9);
      }
    }
  }
}

TEST(HankelGramOperator, CopiesWindow) {
  std::vector<double> w{1.0, 2.0, 3.0, 4.0, 5.0};
  const HankelGramOperator op(w, 3, 3);
  w.assign(w.size(), 0.0);  // mutate the source after construction
  Vector y(3);
  op.apply(Vector{1.0, 0.0, 0.0}, y);
  EXPECT_NE(y[0], 0.0);
}

TEST(DenseOperator, AppliesMatrix) {
  const Matrix m{{2.0, 0.0}, {0.0, 3.0}};
  const DenseOperator op(m);
  Vector y(2);
  op.apply(Vector{1.0, 1.0}, y);
  EXPECT_EQ(y, (Vector{2.0, 3.0}));
  EXPECT_THROW(DenseOperator(Matrix(2, 3)), InvalidArgument);
}

TEST(Lanczos, FullDimensionIsExact) {
  // k = n Lanczos on an SPD matrix reproduces the full spectrum.
  Rng rng(2);
  const Matrix c = random_spd(6, rng);
  Vector seed(6);
  for (double& v : seed) v = rng.gaussian();
  const DenseOperator op(c);
  const LanczosResult r = lanczos(op, seed, 6, true);
  ASSERT_EQ(r.steps(), 6u);
  const Vector ritz = tridiag_eigenvalues(r.t);
  const SymEigen exact = sym_eigen(c);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(ritz[i], exact.values[i], 1e-7 * std::abs(exact.values[0]));
  }
}

TEST(Lanczos, BasisIsOrthonormal) {
  Rng rng(3);
  const Matrix c = random_spd(8, rng);
  Vector seed(8);
  for (double& v : seed) v = rng.gaussian();
  const DenseOperator op(c);
  const LanczosResult r = lanczos(op, seed, 5, true);
  ASSERT_EQ(r.basis.cols(), r.steps());
  for (std::size_t a = 0; a < r.basis.cols(); ++a) {
    for (std::size_t b = a; b < r.basis.cols(); ++b) {
      const double expected = a == b ? 1.0 : 0.0;
      EXPECT_NEAR(dot(r.basis.col(a), r.basis.col(b)), expected, 1e-10);
    }
  }
}

TEST(Lanczos, SeedNormalizationIrrelevant) {
  Rng rng(4);
  const Matrix c = random_spd(5, rng);
  Vector seed(5);
  for (double& v : seed) v = rng.gaussian();
  Vector scaled = seed;
  for (double& v : scaled) v *= 1e6;
  const DenseOperator op(c);
  const Vector r1 = tridiag_eigenvalues(lanczos(op, seed, 4).t);
  const Vector r2 = tridiag_eigenvalues(lanczos(op, scaled, 4).t);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(r1[i], r2[i], 1e-8 * std::abs(r1[0]));
  }
}

TEST(Lanczos, BreaksDownGracefullyOnLowRank) {
  // Rank-1 operator: the Krylov space is 1-dimensional.
  Matrix a(4, 1);
  a(0, 0) = 1.0;
  a(1, 0) = 2.0;
  a(2, 0) = 3.0;
  a(3, 0) = 4.0;
  const Matrix c = gram_rows(a);
  const DenseOperator op(c);
  const LanczosResult r = lanczos(op, Vector{1.0, 2.0, 3.0, 4.0}, 4);
  EXPECT_EQ(r.steps(), 1u);
  EXPECT_NEAR(r.t.diag[0], 30.0, 1e-9);  // lambda = ||u||² = 30
}

TEST(Lanczos, RejectsZeroSeedAndBadSizes) {
  const DenseOperator op(Matrix::identity(3));
  EXPECT_THROW((void)lanczos(op, Vector{0.0, 0.0, 0.0}, 2), InvalidArgument);
  EXPECT_THROW((void)lanczos(op, Vector{1.0, 0.0}, 2), InvalidArgument);
  EXPECT_THROW((void)lanczos(op, Vector{1.0, 0.0, 0.0}, 0), InvalidArgument);
}

// Property: the top Ritz value after k << n steps is a tight lower bound on
// the true top eigenvalue, and the projection estimate used by Eq. 13
// matches the exact projection for the FUNNEL geometry (omega = 9, k = 5).
class LanczosRitzProperty : public ::testing::TestWithParam<int> {};

TEST_P(LanczosRitzProperty, TopRitzApproximatesTopEigenvalue) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Matrix c = random_spd(9, rng);
  Vector seed(9);
  for (double& v : seed) v = rng.gaussian();
  const DenseOperator op(c);
  const Vector ritz = tridiag_eigenvalues(lanczos(op, seed, 5).t);
  const SymEigen exact = sym_eigen(c);
  EXPECT_LE(ritz[0], exact.values[0] * (1.0 + 1e-9));
  EXPECT_GT(ritz[0], exact.values[0] * 0.8);
}

TEST_P(LanczosRitzProperty, Eq13MatchesExactProjection) {
  // phi = 1 - sum_j (betaᵀ u_j)² (exact, j over top eta eigenvectors of C)
  // vs 1 - sum_j x_j[0]² (Lanczos + QL approximation).
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77u + 5u);
  std::vector<double> w(hankel_span(9, 9));
  for (double& x : w) x = rng.gaussian();
  const HankelGramOperator op(w, 9, 9);
  Vector beta(9);
  for (double& v : beta) v = rng.gaussian();
  normalize(beta);

  const Matrix b = hankel(w, 9, 9);
  const SymEigen exact = sym_eigen(gram_rows(b));
  double exact_proj2 = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    const double p = dot(beta, exact.vectors.col(j));
    exact_proj2 += p * p;
  }

  const LanczosResult lr = lanczos(op, beta, 5);
  const SymEigen tk = tridiag_eigen(lr.t);
  double approx_proj2 = 0.0;
  for (std::size_t j = 0; j < 3 && j < tk.values.size(); ++j) {
    approx_proj2 += tk.vectors(0, j) * tk.vectors(0, j);
  }
  // The k = 5 Krylov space from a random seed captures the top-3 projection
  // approximately; occasional poorly-aligned seeds deviate more.
  EXPECT_NEAR(approx_proj2, exact_proj2, 0.3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LanczosRitzProperty, ::testing::Range(1, 11));

}  // namespace
}  // namespace funnel::linalg

#include "linalg/sym_eigen.h"

#include <cmath>
#include <utility>

#include "common/error.h"

namespace funnel::linalg {

SymEigen sym_eigen(const Matrix& a, double tol, int max_sweeps) {
  Matrix m = a;
  SymEigen out;
  sym_eigen(m, out.values, out.vectors, tol, max_sweeps);
  return out;
}

void sym_eigen(Matrix& m, Vector& values, Matrix& q, double tol,
               int max_sweeps) {
  FUNNEL_REQUIRE(m.rows() == m.cols(), "sym_eigen requires a square matrix");
  const std::size_t n = m.rows();
  q.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;

  // Scale for the convergence test: Frobenius norm of the input.
  double fro = 0.0;
  for (double x : m.data()) fro += x * x;
  fro = std::sqrt(fro);
  const double stop = tol * (fro > 0.0 ? fro : 1.0);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) off += m(i, j) * m(i, j);
    }
    off = std::sqrt(2.0 * off);
    if (off <= stop) break;
    if (sweep == max_sweeps - 1) {
      throw NumericalError("sym_eigen: sweep limit exceeded");
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t qq = p + 1; qq < n; ++qq) {
        const double apq = m(p, qq);
        if (std::abs(apq) <= stop / static_cast<double>(n * n)) continue;
        const double app = m(p, p);
        const double aqq = m(qq, qq);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : -1.0 / (-theta + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // Apply the rotation J(p, q, theta) on both sides: M <- Jᵀ M J.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, qq);
          m(k, p) = c * mkp - s * mkq;
          m(k, qq) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(qq, k);
          m(p, k) = c * mpk - s * mqk;
          m(qq, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double qkp = q(k, p);
          const double qkq = q(k, qq);
          q(k, p) = c * qkp - s * qkq;
          q(k, qq) = s * qkp + c * qkq;
        }
      }
    }
  }

  values.resize(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = m(i, i);
  sort_eigenpairs(values, q);
}

void sort_eigenpairs(Vector& values, Matrix& vectors) {
  FUNNEL_REQUIRE(vectors.cols() == values.size(),
                 "sort_eigenpairs: one column per value");
  // Insertion sort: n is the Krylov dimension or the embedding size.
  for (std::size_t i = 1; i < values.size(); ++i) {
    for (std::size_t j = i; j > 0 && values[j] > values[j - 1]; --j) {
      std::swap(values[j], values[j - 1]);
      for (std::size_t r = 0; r < vectors.rows(); ++r) {
        std::swap(vectors(r, j), vectors(r, j - 1));
      }
    }
  }
}

}  // namespace funnel::linalg

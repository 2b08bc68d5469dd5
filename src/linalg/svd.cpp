#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace funnel::linalg {
namespace {

// Whether the sweep limit left a real failure behind: a pair of W's columns
// that is still not orthogonal while both columns carry weight. On a
// rank-deficient input (an integer-valued KPI's Hankel matrix) the rotations
// drive the null columns down to rounding noise, and noise never becomes
// orthogonal; a column whose squared norm is below 1e-30·‖A‖²_F is that
// noise, and U·S·Vᵀ is exact without it.
bool has_live_pair(const Matrix& a, const Matrix& w, double tol) {
  double fro2 = 0.0;
  for (double x : a.data()) fro2 += x * x;
  const double floor = 1e-30 * fro2;
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();
  for (std::size_t p = 0; p + 1 < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      double alpha = 0.0, beta = 0.0, gamma = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        alpha += w(i, p) * w(i, p);
        beta += w(i, q) * w(i, q);
        gamma += w(i, p) * w(i, q);
      }
      const bool orthogonal =
          std::abs(gamma) <= tol * std::sqrt(alpha * beta) || gamma == 0.0;
      if (!orthogonal && alpha > floor && beta > floor) return true;
    }
  }
  return false;
}

// One-sided Jacobi on a tall (m >= n) matrix: repeatedly rotate column pairs
// of W (a working copy of A) to orthogonality while accumulating the same
// rotations into V. Afterwards the column norms of W are the singular values
// and the normalized columns are U.
Svd jacobi_tall(const Matrix& a, double tol, int max_sweeps) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix w = a;
  Matrix v = Matrix::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q);
          alpha += wp * wp;
          beta += wq * wq;
          gamma += wp * wq;
        }
        if (std::abs(gamma) <= tol * std::sqrt(alpha * beta) || gamma == 0.0) {
          continue;
        }
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0)
                             ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                             : -1.0 / (-zeta + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
    if (sweep == max_sweeps - 1 && has_live_pair(a, w, tol)) {
      throw NumericalError("jacobi_svd: sweep limit exceeded");
    }
  }

  // Extract singular values and U, then order non-increasing.
  Vector sigma(n);
  Matrix u(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    double nrm = 0.0;
    for (std::size_t i = 0; i < m; ++i) nrm += w(i, j) * w(i, j);
    nrm = std::sqrt(nrm);
    sigma[j] = nrm;
    if (nrm > 0.0) {
      for (std::size_t i = 0; i < m; ++i) u(i, j) = w(i, j) / nrm;
    } else {
      // Null direction: leave the column zero; callers treat sigma=0 columns
      // as an orthogonal complement they do not consume.
      for (std::size_t i = 0; i < m; ++i) u(i, j) = 0.0;
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return sigma[x] > sigma[y]; });

  Svd out;
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  out.singular_values.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    out.singular_values[j] = sigma[src];
    for (std::size_t i = 0; i < m; ++i) out.u(i, j) = u(i, src);
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  return out;
}

}  // namespace

Svd jacobi_svd(const Matrix& a, double tol, int max_sweeps) {
  FUNNEL_REQUIRE(!a.empty(), "jacobi_svd of empty matrix");
  if (a.rows() >= a.cols()) return jacobi_tall(a, tol, max_sweeps);
  // Wide matrix: decompose the transpose and swap factors.
  Svd t = jacobi_tall(transpose(a), tol, max_sweeps);
  Svd out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.singular_values = std::move(t.singular_values);
  return out;
}

Matrix reconstruct(const Svd& svd) {
  const std::size_t m = svd.u.rows();
  const std::size_t n = svd.v.rows();
  const std::size_t p = svd.singular_values.size();
  Matrix out(m, n);
  for (std::size_t k = 0; k < p; ++k) {
    const double s = svd.singular_values[k];
    if (s == 0.0) continue;
    for (std::size_t i = 0; i < m; ++i) {
      const double us = svd.u(i, k) * s;
      for (std::size_t j = 0; j < n; ++j) out(i, j) += us * svd.v(j, k);
    }
  }
  return out;
}

}  // namespace funnel::linalg

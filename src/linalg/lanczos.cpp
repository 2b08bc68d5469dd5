#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace funnel::linalg {

DenseOperator::DenseOperator(Matrix m) : m_(std::move(m)) {
  FUNNEL_REQUIRE(m_.rows() == m_.cols(), "DenseOperator requires square matrix");
}

void DenseOperator::apply(std::span<const double> x, std::span<double> y) const {
  const Vector r = matvec(m_, x);
  std::copy(r.begin(), r.end(), y.begin());
}

LanczosResult lanczos(const LinearOperator& op, std::span<const double> v0,
                      std::size_t k, bool want_basis) {
  LanczosWorkspace ws;
  lanczos(op, v0, k, ws);
  LanczosResult out;
  out.t = std::move(ws.t);
  if (want_basis) {
    out.basis = Matrix(op.dim(), out.t.diag.size());
    for (std::size_t j = 0; j < out.t.diag.size(); ++j) {
      out.basis.set_col(j, ws.basis.row(j));
    }
  }
  return out;
}

void lanczos(const LinearOperator& op, std::span<const double> v0,
             std::size_t k, LanczosWorkspace& ws) {
  const std::size_t n = op.dim();
  FUNNEL_REQUIRE(v0.size() == n, "lanczos seed dimension mismatch");
  FUNNEL_REQUIRE(k >= 1, "lanczos needs at least one step");
  k = std::min(k, n);

  if (ws.basis.rows() != k || ws.basis.cols() != n) ws.basis.resize(k, n);
  ws.w.resize(n);
  Vector& alphas = ws.t.diag;
  Vector& betas = ws.t.subdiag;
  alphas.clear();
  betas.clear();
  alphas.reserve(k);
  betas.reserve(k);

  const std::span<double> v = ws.basis.row(0);
  std::copy(v0.begin(), v0.end(), v.begin());
  const double v0norm = normalize(v);
  FUNNEL_REQUIRE(v0norm > 0.0, "lanczos seed must be nonzero");

  const std::span<double> w = ws.w;
  for (std::size_t j = 0; j < k; ++j) {
    const std::span<const double> vj = ws.basis.row(j);
    op.apply(vj, w);
    const double alpha = dot(w, vj);
    alphas.push_back(alpha);
    // w <- w - alpha v - beta v_{j-1}, then full reorthogonalization.
    axpy(-alpha, vj, w);
    if (j > 0) axpy(-betas.back(), ws.basis.row(j - 1), w);
    for (std::size_t b = 0; b <= j; ++b) {
      const std::span<const double> vb = ws.basis.row(b);
      const double proj = dot(w, vb);
      axpy(-proj, vb, w);
    }
    const double beta = norm2(w);
    if (j + 1 == k) break;
    if (beta <= 1e-13 * std::abs(alphas.front() == 0.0 ? 1.0 : alphas.front()) ||
        beta <= 1e-300) {
      // Krylov space exhausted (C has low rank relative to the seed).
      break;
    }
    betas.push_back(beta);
    const std::span<double> next = ws.basis.row(j + 1);
    for (std::size_t i = 0; i < n; ++i) next[i] = w[i] / beta;
  }
}

}  // namespace funnel::linalg

#include "detect/ika_sst.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "linalg/hankel.h"
#include "linalg/lanczos.h"
#include "linalg/sym_eigen.h"
#include "linalg/tridiag.h"

namespace funnel::detect {
namespace {

/// Orthonormalize the columns of b in place (modified Gram-Schmidt); columns
/// that collapse to zero are replaced with canonical basis vectors so the
/// block keeps full rank.
void orthonormalize(linalg::Matrix& b) {
  const std::size_t n = b.rows();
  for (std::size_t j = 0; j < b.cols(); ++j) {
    linalg::Vector col = b.col(j);
    for (std::size_t k = 0; k < j; ++k) {
      const linalg::Vector prev = b.col(k);
      const double proj = linalg::dot(col, prev);
      for (std::size_t i = 0; i < n; ++i) col[i] -= proj * prev[i];
    }
    if (linalg::normalize(col) <= 1e-12) {
      std::fill(col.begin(), col.end(), 0.0);
      col[j % n] = 1.0;
      for (std::size_t k = 0; k < j; ++k) {
        const linalg::Vector prev = b.col(k);
        const double proj = linalg::dot(col, prev);
        for (std::size_t i = 0; i < n; ++i) col[i] -= proj * prev[i];
      }
      linalg::normalize(col);
    }
    b.set_col(j, col);
  }
}

/// Seed a cold block with lagged windows spread across the half, plus a
/// small perturbation on the first column, then orthonormalize.
void seed_basis(linalg::Matrix& basis, std::span<const double> half,
                std::size_t omega, std::size_t eta) {
  basis = linalg::Matrix(omega, eta);
  for (std::size_t j = 0; j < eta; ++j) {
    const std::size_t offset =
        eta > 1 ? j * (half.size() - omega) / (eta - 1) : 0;
    for (std::size_t i = 0; i < omega; ++i) {
      basis(i, j) = half[offset + i] + (j == 0 ? 1e-3 : 0.0);
    }
  }
  orthonormalize(basis);
}

/// One Rayleigh-Ritz step given Y = C·B: T = Bᵀ Y (eta x eta, symmetric),
/// eigendecompose, B <- orth(Y·Q). Returns the Ritz values (non-increasing
/// estimates of C's leading eigenvalues).
linalg::Vector ritz_rotate(linalg::Matrix& basis, const linalg::Matrix& y) {
  const std::size_t omega = basis.rows();
  const std::size_t eta = basis.cols();
  linalg::Matrix t(eta, eta);
  for (std::size_t a = 0; a < eta; ++a) {
    const linalg::Vector ba = basis.col(a);
    for (std::size_t b = a; b < eta; ++b) {
      const double v = linalg::dot(ba, y.col(b));
      t(a, b) = v;
      t(b, a) = v;
    }
  }
  const linalg::SymEigen te = linalg::sym_eigen(t);
  linalg::Matrix next(omega, eta);
  for (std::size_t j = 0; j < eta; ++j) {
    linalg::Vector col(omega, 0.0);
    for (std::size_t a = 0; a < eta; ++a) {
      const double q = te.vectors(a, j);
      for (std::size_t i = 0; i < omega; ++i) col[i] += y(i, a) * q;
    }
    next.set_col(j, col);
  }
  orthonormalize(next);
  basis = std::move(next);
  return te.values;
}

// Block power sweeps with Rayleigh-Ritz extraction: B <- orth((C B) Q) with
// Q the eigenvectors of T = Bᵀ C B. Returns the Ritz values (estimates of
// C's leading eigenvalues, non-increasing). The C·B product runs through
// the blocked Hankel kernel — bit-identical to column-at-a-time applies,
// just one strided pass.
linalg::Vector ritz_iterate(const linalg::HankelGramOperator& op,
                            linalg::Matrix& basis, int iterations) {
  const std::size_t omega = basis.rows();
  const std::size_t eta = basis.cols();
  linalg::Vector lambdas(eta, 0.0);
  linalg::Vector scratch(op.count() * eta);
  for (int it = 0; it < iterations; ++it) {
    linalg::Matrix y(omega, eta);
    op.apply_block(basis.data(), y.data(), eta, scratch);
    lambdas = ritz_rotate(basis, y);
  }
  return lambdas;
}

}  // namespace

IkaSst::IkaSst(SstGeometry geometry, IkaParams params)
    : geo_(geometry), params_(params) {
  FUNNEL_REQUIRE(geo_.omega >= 2, "SST needs omega >= 2");
  FUNNEL_REQUIRE(geo_.eta >= 1 && geo_.eta < geo_.omega,
                 "SST needs 1 <= eta < omega");
  FUNNEL_REQUIRE(geo_.krylov_k() <= geo_.omega,
                 "Krylov dimension k must not exceed omega");
  FUNNEL_REQUIRE(params_.cold_iterations >= 1 && params_.warm_iterations >= 1,
                 "iteration counts must be positive");
}

double IkaSst::score(std::span<const double> window) {
  return score(window, -std::numeric_limits<double>::infinity(), nullptr);
}

double IkaSst::score(std::span<const double> window, double threshold,
                     bool* suppressed) {
  FUNNEL_REQUIRE(window.size() == geo_.window(),
                 "IkaSst window size mismatch");
  if (suppressed != nullptr) *suppressed = false;
  const std::vector<double> z = standardize_window(window, geo_.half());
  if (z.empty()) return std::numeric_limits<double>::quiet_NaN();

  const std::size_t omega = geo_.omega;
  const std::size_t eta = geo_.eta;
  const std::size_t k = geo_.krylov_k();
  const std::span<const double> past(z.data(), geo_.half());
  const std::span<const double> future(z.data() + geo_.half(), geo_.half());

  // --- Future: eta leading eigenpairs of A·Aᵀ by warm-started block power
  // iteration with Rayleigh-Ritz extraction. Runs on every window, gated or
  // not: the next window warm-starts from this basis.
  const linalg::HankelGramOperator future_op(future, omega, omega);
  const bool was_warm = warm_;
  if (!warm_) seed_basis(future_basis_, future, omega, eta);
  const linalg::Vector lambdas = ritz_iterate(
      future_op, future_basis_,
      was_warm ? params_.warm_iterations : params_.cold_iterations);
  warm_ = true;

  // Eq. 11 factor: the score is x̂ · factor with x̂ ≤ 1, so a factor at or
  // under the threshold settles the window without the past side.
  const double factor = robust_score_factor(past, future);
  if (factor <= threshold) {
    if (suppressed != nullptr) *suppressed = true;
    return 0.0;
  }

  // --- Past: phi_i per future direction. ---
  const linalg::HankelGramOperator past_op(past, omega, omega);

  double weighted = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < eta; ++i) {
    const double lambda = std::max(lambdas[i], 0.0);
    if (lambda <= 0.0) break;
    const linalg::Vector beta = future_basis_.col(i);

    const linalg::LanczosResult plr = linalg::lanczos(past_op, beta, k);
    const linalg::SymEigen pe = linalg::tridiag_eigen(plr.t);
    double proj2 = 0.0;
    const std::size_t n_past = std::min<std::size_t>(eta, pe.values.size());
    for (std::size_t j = 0; j < n_past; ++j) {
      if (pe.values[j] <= 0.0) break;
      const double x0 = pe.vectors(0, j);  // Eq. 13: first components
      proj2 += x0 * x0;
    }
    const double phi = std::clamp(1.0 - proj2, 0.0, 1.0);
    weighted += lambda * phi;  // Eq. 9
    total_weight += lambda;
  }
  if (total_weight <= 0.0) return 0.0;
  const double xhat =
      std::max(weighted / total_weight, geo_.novelty_floor);

  return xhat * factor;  // Eq. 11
}

}  // namespace funnel::detect

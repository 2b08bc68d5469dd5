#include "detect/ika_sst.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "linalg/sym_eigen.h"
#include "linalg/tridiag.h"

namespace funnel::detect {
namespace {

/// Orthonormalize the columns of b in place (modified Gram-Schmidt); columns
/// that collapse to zero are replaced with canonical basis vectors so the
/// block keeps full rank — unless the canonical vector lies in the span of
/// the earlier columns, when the column stays zero.
void orthonormalize(linalg::Matrix& b) {
  const std::size_t n = b.rows();
  // Column j minus its projection on (final, unit) column k.
  const auto project_out = [&](std::size_t j, std::size_t k) {
    double proj = 0.0;
    for (std::size_t i = 0; i < n; ++i) proj += b(i, j) * b(i, k);
    for (std::size_t i = 0; i < n; ++i) b(i, j) -= proj * b(i, k);
  };
  // linalg::normalize() on column j: returns the norm it divided by.
  const auto normalize_col = [&](std::size_t j) {
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) sq += b(i, j) * b(i, j);
    const double norm = std::sqrt(sq);
    if (norm > 0.0) {
      for (std::size_t i = 0; i < n; ++i) b(i, j) /= norm;
    }
    return norm;
  };
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t k = 0; k < j; ++k) project_out(j, k);
    if (normalize_col(j) <= 1e-12) {
      for (std::size_t i = 0; i < n; ++i) b(i, j) = 0.0;
      b(j % n, j) = 1.0;
      for (std::size_t k = 0; k < j; ++k) project_out(j, k);
      normalize_col(j);
    }
  }
}

/// Seed a cold block (omega x eta) with lagged windows spread across the
/// half, plus a small perturbation on the first column, then
/// orthonormalize.
void seed_basis(linalg::Matrix& basis, std::span<const double> half) {
  const std::size_t omega = basis.rows();
  const std::size_t eta = basis.cols();
  for (std::size_t j = 0; j < eta; ++j) {
    const std::size_t offset =
        eta > 1 ? j * (half.size() - omega) / (eta - 1) : 0;
    for (std::size_t i = 0; i < omega; ++i) {
      basis(i, j) = half[offset + i] + (j == 0 ? 1e-3 : 0.0);
    }
  }
  orthonormalize(basis);
}

const SstGeometry& validated(const SstGeometry& geo, const IkaParams& params) {
  FUNNEL_REQUIRE(geo.omega >= 2, "SST needs omega >= 2");
  FUNNEL_REQUIRE(geo.eta >= 1 && geo.eta < geo.omega,
                 "SST needs 1 <= eta < omega");
  FUNNEL_REQUIRE(geo.krylov_k() <= geo.omega,
                 "Krylov dimension k must not exceed omega");
  FUNNEL_REQUIRE(params.cold_iterations >= 1 && params.warm_iterations >= 1,
                 "iteration counts must be positive");
  return geo;
}

}  // namespace

IkaSst::IkaSst(SstGeometry geometry, IkaParams params)
    : geo_(validated(geometry, params)),
      params_(params),
      future_basis_(geo_.omega, geo_.eta),
      halves_(geo_.half()),
      z_(geo_.window()),
      future_op_(std::vector<double>(geo_.half()), geo_.omega, geo_.omega),
      past_op_(std::vector<double>(geo_.half()), geo_.omega, geo_.omega),
      y_(geo_.omega, geo_.eta),
      t_(geo_.eta, geo_.eta),
      next_(geo_.omega, geo_.eta),
      ritz_values_(geo_.eta),
      ritz_vectors_(geo_.eta, geo_.eta),
      beta_(geo_.omega),
      ql_row0_(1, geo_.krylov_k()) {
  const std::size_t k = geo_.krylov_k();
  lanczos_.basis = linalg::Matrix(k, geo_.omega);
  lanczos_.w.resize(geo_.omega);
  lanczos_.t.diag.reserve(k);
  lanczos_.t.subdiag.reserve(k);  // the QL solve grows it to k
}

double IkaSst::score(std::span<const double> window) {
  return score(window, -std::numeric_limits<double>::infinity(), nullptr);
}

std::span<const double> IkaSst::ritz_iterate(int iterations) {
  const std::size_t omega = geo_.omega;
  const std::size_t eta = geo_.eta;
  for (int it = 0; it < iterations; ++it) {
    // Y = C·B, one Hankel Gram product per column of B.
    future_op_.apply_block(future_basis_.data(), y_.data(), eta);
    // T = Bᵀ Y (eta x eta, symmetric), eigendecomposed: Q and the Ritz
    // values (non-increasing estimates of C's leading eigenvalues).
    for (std::size_t a = 0; a < eta; ++a) {
      for (std::size_t b = a; b < eta; ++b) {
        double v = 0.0;
        for (std::size_t i = 0; i < omega; ++i) {
          v += future_basis_(i, a) * y_(i, b);
        }
        t_(a, b) = v;
        t_(b, a) = v;
      }
    }
    linalg::sym_eigen(t_, ritz_values_, ritz_vectors_);
    // B <- orth(Y·Q), each entry summed in a register in ascending a.
    for (std::size_t j = 0; j < eta; ++j) {
      for (std::size_t i = 0; i < omega; ++i) {
        double v = 0.0;
        for (std::size_t a = 0; a < eta; ++a) {
          v += y_(i, a) * ritz_vectors_(a, j);
        }
        next_(i, j) = v;
      }
    }
    orthonormalize(next_);
    std::swap(future_basis_, next_);
  }
  return ritz_values_;
}

double IkaSst::score(std::span<const double> window, double threshold,
                     GateDecision* decision) {
  FUNNEL_REQUIRE(window.size() == geo_.window(),
                 "IkaSst window size mismatch");
  const auto decide = [decision](GateDecision d) {
    if (decision != nullptr) *decision = d;
  };
  const std::optional<HalfStats> stats = halves_.standardize(window, z_);
  if (!stats) {
    decide(GateDecision::kDirty);
    return std::numeric_limits<double>::quiet_NaN();
  }

  const std::size_t omega = geo_.omega;
  const std::size_t eta = geo_.eta;
  const std::size_t k = geo_.krylov_k();
  const std::span<const double> past(z_.data(), geo_.half());
  const std::span<const double> future(z_.data() + geo_.half(), geo_.half());

  // --- Future: eta leading eigenpairs of A·Aᵀ by warm-started block power
  // iteration with Rayleigh-Ritz extraction. Runs on every window, gated or
  // not: the next window warm-starts from this basis.
  future_op_.assign(future);
  const bool was_warm = warm_;
  if (!warm_) seed_basis(future_basis_, future);
  const std::span<const double> lambdas = ritz_iterate(
      was_warm ? params_.warm_iterations : params_.cold_iterations);
  warm_ = true;

  // Eq. 11 factor: the score is x̂ · factor with x̂ ≤ 1, so a factor at or
  // under the threshold settles the window without the past side.
  const double factor = robust_score_factor(*stats);
  if (factor <= threshold) {
    decide(GateDecision::kVarianceSuppressed);
    return 0.0;
  }

  // --- Past: phi_i per future direction. ---
  past_op_.assign(past);
  decide(GateDecision::kScored);

  // The exits' bounds (header comment); threshold −∞ leaves only exit (1).
  const double floor_bound = geo_.novelty_floor * (1.0 - kExitSlack);
  const double threshold_bound = threshold * (1.0 - kExitSlack);
  double weighted = 0.0;
  double total_weight = 0.0;
  for (std::size_t i = 0; i < eta; ++i) {
    const double lambda = std::max(lambdas[i], 0.0);
    if (lambda <= 0.0) break;
    for (std::size_t r = 0; r < omega; ++r) beta_[r] = future_basis_(r, i);
    // A direction orthonormalize() could not fill (its canonical
    // replacement lay in the span of the earlier ones) has no energy to
    // weigh either, whatever rounding left in its Ritz value.
    if (std::all_of(beta_.begin(), beta_.end(),
                    [](double x) { return x == 0.0; })) {
      break;
    }

    linalg::lanczos(past_op_, beta_, k, lanczos_);
    // QL on T_k in place (the next Lanczos run refills it), rotating just
    // the row e₁: Eq. 13 reads only the first components.
    linalg::Vector& ritz = lanczos_.t.diag;
    ql_row0_.resize(1, ritz.size());
    ql_row0_(0, 0) = 1.0;
    linalg::tridiag_eigen(ritz, lanczos_.t.subdiag, ql_row0_);
    double proj2 = 0.0;
    const std::size_t n_past = std::min<std::size_t>(eta, ritz.size());
    for (std::size_t j = 0; j < n_past; ++j) {
      if (ritz[j] <= 0.0) break;
      const double x0 = ql_row0_(0, j);  // Eq. 13: first components
      proj2 += x0 * x0;
    }
    const double phi = std::clamp(1.0 - proj2, 0.0, 1.0);
    weighted += lambda * phi;  // Eq. 9
    total_weight += lambda;

    if (i + 1 == eta) break;
    // u bounds the final weighted / total_weight: every unread φ is ≤ 1.
    double rest = 0.0;
    for (std::size_t j = i + 1; j < eta; ++j) {
      rest += std::max(lambdas[j], 0.0);
    }
    const double u = (weighted + rest) / (total_weight + rest);
    if (u <= floor_bound) return geo_.novelty_floor * factor;  // exit (1)
    // max(u, floor), not max(floor, u): a NaN u must stay NaN.
    if (std::max(u, geo_.novelty_floor) * factor <= threshold_bound) {
      decide(GateDecision::kBoundSuppressed);  // exit (2)
      return 0.0;
    }
  }
  if (total_weight <= 0.0) return 0.0;
  const double xhat =
      std::max(weighted / total_weight, geo_.novelty_floor);

  return xhat * factor;  // Eq. 11
}

}  // namespace funnel::detect

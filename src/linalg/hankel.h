// Hankel (trajectory) matrices over sliding KPI windows.
//
// SST compares the dynamics before and after a candidate change point by
// embedding the raw series into Hankel matrices (Eq. 1 and 3):
//   B(t) = [q(t-δ), ..., q(t-1)],  q(t) = [x(t-ω+1), ..., x(t)]ᵀ
// Both the past matrix B and the future matrix A are built by `hankel` from
// the corresponding window slice. The Gram operator C = B·Bᵀ is applied
// implicitly (never materialized) — the paper's "matrix compression and
// implicit inner product calculation".
#pragma once

#include <span>

#include "linalg/lanczos.h"
#include "linalg/matrix.h"

namespace funnel::linalg {

/// Build an omega x count Hankel matrix whose column j is
/// window[j .. j+omega-1]. The window must contain exactly
/// omega + count - 1 samples.
Matrix hankel(std::span<const double> window, std::size_t omega,
              std::size_t count);

/// Number of raw samples a Hankel embedding of `count` lagged windows of
/// size `omega` consumes.
constexpr std::size_t hankel_span(std::size_t omega, std::size_t count) {
  return omega + count - 1;
}

/// Implicit Gram operator y = B·(Bᵀ·x) for a Hankel matrix B defined by a
/// raw window, computed directly from the samples without forming B or
/// B·Bᵀ. Cost per apply is O(omega * count) multiply-adds.
///
/// Both products are correlations of the window with a vector, and one
/// kernel computes them: t[j] = Σ_i window[j + i]·x[i], then
/// y[i] = Σ_j window[j + i]·t[j]. Each sum starts at +0.0 and adds its
/// products in ascending index order, the order of the plain double loop,
/// so the result is that loop's bit for bit. The kernel keeps four
/// independent sums in registers per pass (two SSE2 pairs), so no sum
/// waits on a store to memory; it never splits or reorders one sum.
///
/// The window is copied (it is at most a few dozen samples), so the operator
/// remains valid after the source buffer changes — important for the online
/// sliding-window detector. apply() and apply_block() compute Bᵀ·x into a
/// buffer the operator owns, so one operator must not be applied from two
/// threads at once.
class HankelGramOperator final : public LinearOperator {
 public:
  HankelGramOperator(std::span<const double> window, std::size_t omega,
                     std::size_t count);

  /// Replace the samples in place with another window of the same length,
  /// without allocating: a scorer refills one operator per window.
  void assign(std::span<const double> window);

  std::size_t dim() const override { return omega_; }
  void apply(std::span<const double> x, std::span<double> y) const override;

  /// Y = C X for a block of `cols` vectors stored row-major
  /// (x[i * cols + b] = X(i, b), i < dim()): apply() on each column's
  /// strided view, so column b of Y is bit-identical to apply() of
  /// column b of X.
  void apply_block(std::span<const double> x, std::span<double> y,
                   std::size_t cols) const;

  std::size_t count() const { return count_; }

 private:
  /// apply() on x[0], x[stride], ... into y[0], y[stride], ...
  void apply_strided(const double* x, double* y, std::size_t stride) const;

  std::size_t omega_;
  std::size_t count_;
  Vector window_;
  mutable Vector t_;  ///< Bᵀ·x of the column being applied
};

}  // namespace funnel::linalg

// Lanczos tridiagonalization for the Implicit Krylov Approximation (§3.2.3).
//
// Given a symmetric operator C (FUNNEL uses C = B·Bᵀ of the past Hankel
// matrix, applied implicitly — see hankel.h) and a seed vector, k Lanczos
// steps produce a k x k tridiagonal T_k whose leading eigenpairs approximate
// the leading eigenpairs of C in the Krylov subspace spanned by
// {v, Cv, C²v, ...}. The change score only needs the first component of
// T_k's eigenvectors (the seed is e1 in the Krylov basis), which is what
// makes the per-window cost tiny.
#pragma once

#include <span>

#include "linalg/matrix.h"
#include "linalg/tridiag.h"

namespace funnel::linalg {

/// Abstract symmetric linear operator y = C x.
class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Dimension of the (square) operator.
  virtual std::size_t dim() const = 0;

  /// y = C x; `y` is pre-sized to dim() and must be fully overwritten.
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;
};

/// Dense symmetric operator backed by a Matrix (testing / reference).
class DenseOperator final : public LinearOperator {
 public:
  explicit DenseOperator(Matrix m);
  std::size_t dim() const override { return m_.rows(); }
  void apply(std::span<const double> x, std::span<double> y) const override;

 private:
  Matrix m_;
};

/// Result of a Lanczos run: the tridiagonal T_k and (optionally) the
/// orthonormal Krylov basis V (dim x k, columns are the Lanczos vectors).
struct LanczosResult {
  Tridiagonal t;
  Matrix basis;  // empty when want_basis = false

  /// Number of completed steps (may be < requested k when the Krylov space
  /// is exhausted, e.g. for low-rank C).
  std::size_t steps() const { return t.diag.size(); }
};

/// Run k steps of Lanczos with full reorthogonalization from seed vector
/// `v0` (need not be normalized; must be nonzero).
///
/// Full reorthogonalization is affordable because FUNNEL's k is 5 or 6, and
/// it removes the classic loss-of-orthogonality failure mode.
LanczosResult lanczos(const LinearOperator& op, std::span<const double> v0,
                      std::size_t k, bool want_basis = false);

/// Caller-owned storage for lanczos(): a caller that keeps one across runs
/// of the same dimension and k allocates nothing after the first.
struct LanczosWorkspace {
  Tridiagonal t;  ///< the result: t.size() steps were completed
  Matrix basis;   ///< k x dim: row j is Lanczos vector j (j < t.size())
  Vector w;       ///< the next residual
};

/// The same run into `ws`. The value-returning form is this on a fresh
/// workspace.
void lanczos(const LinearOperator& op, std::span<const double> v0,
             std::size_t k, LanczosWorkspace& ws);

}  // namespace funnel::linalg

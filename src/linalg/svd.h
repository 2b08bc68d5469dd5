// Singular value decomposition via one-sided Jacobi rotations.
//
// Classic SST (§3.2.1) and the MRLS baseline both need a full SVD of small
// trajectory matrices. One-sided Jacobi is simple, numerically robust and —
// at the omega x delta sizes FUNNEL uses — fast enough to serve as the exact
// reference that the Krylov-approximated detector (IkaSst) is validated
// against.
#pragma once

#include "linalg/matrix.h"

namespace funnel::linalg {

/// Thin SVD of an m x n matrix A = U S Vᵀ.
///
/// With p = min(m, n): U is m x p with orthonormal columns, V is n x p with
/// orthonormal columns and `singular_values` holds the p values in
/// non-increasing order.
struct Svd {
  Matrix u;
  Vector singular_values;
  Matrix v;
};

/// Compute the thin SVD of `a` by one-sided Jacobi iteration.
///
/// Converges when every pair of columns is numerically orthogonal
/// (relative inner product below `tol`). At the sweep limit a pair that is
/// still not orthogonal is tolerated when one of its columns is rounding
/// noise (squared norm below 1e-30·‖A‖²_F, as a rank-deficient input
/// leaves); any other throws NumericalError.
Svd jacobi_svd(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

/// Reconstruct U S Vᵀ (testing helper).
Matrix reconstruct(const Svd& svd);

}  // namespace funnel::linalg

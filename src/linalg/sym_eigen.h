// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Used for the future-trajectory Gram matrix A·Aᵀ in the improved SST
// (§3.2.2), for the Rayleigh-Ritz step of the IKA scorer, and as the exact
// reference for the Lanczos/QL fast path.
#pragma once

#include "linalg/matrix.h"

namespace funnel::linalg {

/// Eigendecomposition of a symmetric matrix: A = Q diag(values) Qᵀ.
/// Eigenvalues are sorted in non-increasing order; column j of `vectors`
/// is the eigenvector for `values[j]`.
struct SymEigen {
  Vector values;
  Matrix vectors;
};

/// Cyclic Jacobi eigensolver for a symmetric matrix.
/// Throws InvalidArgument if `a` is not square, NumericalError if the sweep
/// limit is exceeded.
SymEigen sym_eigen(const Matrix& a, double tol = 1e-12, int max_sweeps = 64);

/// The same solver on caller-owned storage: `m` enters holding A and leaves
/// clobbered; `values` and `vectors` receive the result, reusing their
/// storage, so a caller that keeps all three across calls of one size
/// allocates nothing. The value-returning form is this on a copy of A.
void sym_eigen(Matrix& m, Vector& values, Matrix& vectors, double tol = 1e-12,
               int max_sweeps = 64);

/// Order eigenpairs by non-increasing value, moving column j of `vectors`
/// with `values[j]`. Stable (equal values keep their order), so the result
/// is the one a stable index sort gives, without its allocations.
void sort_eigenpairs(Vector& values, Matrix& vectors);

}  // namespace funnel::linalg

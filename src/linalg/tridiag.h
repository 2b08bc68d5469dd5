// Symmetric tridiagonal eigensolver: QL iteration with implicit shifts.
//
// This is the "QL iteration" step of §3.2.3 (citing Numerical Recipes): the
// Lanczos process reduces C = B·Bᵀ to a k x k tridiagonal T_k, whose
// eigenpairs the QL iteration extracts "extremely fast" — k is 5 or 6 in
// FUNNEL, so this is a handful of 2x2 rotations per window.
#pragma once

#include "linalg/matrix.h"
#include "linalg/sym_eigen.h"

namespace funnel::linalg {

/// A symmetric tridiagonal matrix: `diag` has n entries, `subdiag` n-1.
struct Tridiagonal {
  Vector diag;
  Vector subdiag;

  std::size_t size() const { return diag.size(); }

  /// Materialize as a dense matrix (testing helper).
  Matrix to_dense() const;
};

/// Eigendecomposition of a symmetric tridiagonal matrix by implicit-shift QL
/// (the classic `tqli` routine). Eigenvalues are returned in non-increasing
/// order, eigenvectors as columns of `vectors` (expressed in the basis the
/// tridiagonal matrix is given in).
///
/// Throws NumericalError if an eigenvalue fails to converge in 50 iterations.
SymEigen tridiag_eigen(const Tridiagonal& t);

/// The same solver on caller-owned storage. `d` and `e` enter holding the
/// diagonal and subdiagonal (n and n-1 entries; `e` is clobbered and grows
/// to n), `z` the rows the rotations are accumulated into. Each row evolves
/// on its own, so starting `z` from the n x n identity gives the
/// eigenvectors, and starting it from the identity's first row e₁ gives
/// exactly their first components. On return `d` holds the eigenvalues in
/// non-increasing order and the columns of `z` are permuted to match. A
/// caller that keeps the three across calls allocates nothing once they
/// have held the largest n.
void tridiag_eigen(Vector& d, Vector& e, Matrix& z);

/// Eigenvalues only (same algorithm without eigenvector accumulation —
/// used where only Ritz values are needed).
Vector tridiag_eigenvalues(const Tridiagonal& t);

}  // namespace funnel::linalg

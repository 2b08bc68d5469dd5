// Dense row-major matrix and vector primitives.
//
// The trajectory (Hankel) matrices SST operates on are tiny (omega x delta
// with omega in [5, 32]), so a simple contiguous row-major matrix with
// unblocked kernels is both sufficient and cache-friendly. No external BLAS
// is required anywhere in the repository.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace funnel::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initializer lists (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  /// Become a zero rows x cols matrix, reusing the storage: no allocation
  /// when rows * cols fits what the matrix has held before.
  void resize(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// View of row r.
  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  /// Copy of column c.
  Vector col(std::size_t c) const;

  /// Overwrite column c.
  void set_col(std::size_t c, std::span<const double> v);

  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y = M x.
Vector matvec(const Matrix& m, std::span<const double> x);

/// y = Mᵀ x.
Vector matvec_transposed(const Matrix& m, std::span<const double> x);

/// C = A B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Aᵀ.
Matrix transpose(const Matrix& m);

/// A Aᵀ (Gram matrix of rows).
Matrix gram_rows(const Matrix& a);

/// Aᵀ A (Gram matrix of columns).
Matrix gram_cols(const Matrix& a);

/// Inner product.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> v);

/// Scale v so that ||v|| = 1; returns the original norm. A zero vector is
/// left untouched and 0 is returned.
double normalize(std::span<double> v);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Frobenius norm of A - B (shapes must match).
double frobenius_distance(const Matrix& a, const Matrix& b);

/// Max |A(i,j) - B(i,j)|.
double max_abs_difference(const Matrix& a, const Matrix& b);

}  // namespace funnel::linalg

#include "linalg/hankel.h"

#include <algorithm>

#include "common/error.h"

namespace funnel::linalg {

Matrix hankel(std::span<const double> window, std::size_t omega,
              std::size_t count) {
  FUNNEL_REQUIRE(omega >= 1 && count >= 1, "hankel needs positive dimensions");
  FUNNEL_REQUIRE(window.size() == hankel_span(omega, count),
                 "hankel window length must be omega + count - 1");
  Matrix b(omega, count);
  for (std::size_t j = 0; j < count; ++j) {
    for (std::size_t i = 0; i < omega; ++i) b(i, j) = window[j + i];
  }
  return b;
}

HankelGramOperator::HankelGramOperator(std::span<const double> window,
                                       std::size_t omega, std::size_t count)
    : omega_(omega),
      count_(count),
      window_(window.begin(), window.end()),
      t_(count) {
  FUNNEL_REQUIRE(omega >= 1 && count >= 1,
                 "HankelGramOperator needs positive dimensions");
  FUNNEL_REQUIRE(window_.size() == hankel_span(omega, count),
                 "HankelGramOperator window length must be omega + count - 1");
}

void HankelGramOperator::assign(std::span<const double> window) {
  FUNNEL_REQUIRE(window.size() == window_.size(),
                 "HankelGramOperator window length must be omega + count - 1");
  std::copy(window.begin(), window.end(), window_.begin());
}

void HankelGramOperator::apply(std::span<const double> x,
                               std::span<double> y) const {
  // t = Bᵀ x : t[j] = sum_i window[j + i] * x[i]
  for (std::size_t j = 0; j < count_; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < omega_; ++i) acc += window_[j + i] * x[i];
    t_[j] = acc;
  }
  // y = B t : y[i] = sum_j window[j + i] * t[j]
  for (std::size_t i = 0; i < omega_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < count_; ++j) acc += window_[j + i] * t_[j];
    y[i] = acc;
  }
}

void HankelGramOperator::apply_block(std::span<const double> x,
                                     std::span<double> y, std::size_t cols,
                                     std::span<double> scratch) const {
  FUNNEL_REQUIRE(x.size() >= omega_ * cols && y.size() >= omega_ * cols,
                 "apply_block operand too small");
  FUNNEL_REQUIRE(scratch.size() >= count_ * cols,
                 "apply_block scratch too small");
  // T = Bᵀ X : T(j,b) = sum_i window[j + i] * X(i,b). The i-loop is the
  // accumulation loop (same order as apply()), the b-loop is unit-stride.
  std::fill(scratch.begin(), scratch.begin() + count_ * cols, 0.0);
  for (std::size_t j = 0; j < count_; ++j) {
    double* trow = scratch.data() + j * cols;
    for (std::size_t i = 0; i < omega_; ++i) {
      const double w = window_[j + i];
      const double* xrow = x.data() + i * cols;
      for (std::size_t b = 0; b < cols; ++b) trow[b] += w * xrow[b];
    }
  }
  // Y = B T : Y(i,b) = sum_j window[j + i] * T(j,b), j is the accumulation
  // loop, again matching apply()'s summation order bit for bit.
  std::fill(y.begin(), y.begin() + omega_ * cols, 0.0);
  for (std::size_t i = 0; i < omega_; ++i) {
    double* yrow = y.data() + i * cols;
    for (std::size_t j = 0; j < count_; ++j) {
      const double w = window_[j + i];
      const double* trow = scratch.data() + j * cols;
      for (std::size_t b = 0; b < cols; ++b) yrow[b] += w * trow[b];
    }
  }
}

}  // namespace funnel::linalg

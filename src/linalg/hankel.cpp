#include "linalg/hankel.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace funnel::linalg {
namespace {

/// Two doubles in one SSE2 register. A lane's multiply and add round
/// exactly as the scalar instructions do: a lane is an ordinary double.
typedef double Pair __attribute__((vector_size(16)));

/// Unaligned load of p[0] and p[1].
Pair load_pair(const double* p) {
  Pair v = {0.0, 0.0};
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// The one Hankel kernel, a correlation of the window with a strided
/// vector: out[r·out_stride] = Σ_{s < len} win[r + s]·v[s·v_stride] for
/// r < rows. Each sum starts at +0.0 and adds its products in ascending s,
/// the order of the plain double loop, so every output is that loop's bit
/// for bit. Four independent sums share a pass in two register pairs, so
/// no sum round-trips through memory and the four dependency chains
/// overlap; a scalar tail takes the last rows % 4. The last sample read is
/// win[rows + len - 2].
void correlate(const double* win, const double* v, std::size_t v_stride,
               std::size_t rows, std::size_t len, double* out,
               std::size_t out_stride) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    Pair lo = {0.0, 0.0};
    Pair hi = {0.0, 0.0};
    for (std::size_t s = 0; s < len; ++s) {
      const double vs = v[s * v_stride];
      const Pair b = {vs, vs};
      lo += load_pair(win + r + s) * b;
      hi += load_pair(win + r + s + 2) * b;
    }
    out[r * out_stride] = lo[0];
    out[(r + 1) * out_stride] = lo[1];
    out[(r + 2) * out_stride] = hi[0];
    out[(r + 3) * out_stride] = hi[1];
  }
  for (; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t s = 0; s < len; ++s) acc += win[r + s] * v[s * v_stride];
    out[r * out_stride] = acc;
  }
}

}  // namespace

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

void HankelGramOperator::apply_strided(const double* x, double* y,
                                       std::size_t stride) const {
  // t = Bᵀ x : t[j] = Σ_i window[j + i]·x[i]
  correlate(window_.data(), x, stride, count_, omega_, t_.data(), 1);
  // y = B t : y[i] = Σ_j window[j + i]·t[j]
  correlate(window_.data(), t_.data(), 1, omega_, count_, y, stride);
}

void HankelGramOperator::apply(std::span<const double> x,
                               std::span<double> y) const {
  FUNNEL_REQUIRE(x.size() >= omega_ && y.size() >= omega_,
                 "apply operand too small");
  apply_strided(x.data(), y.data(), 1);
}

void HankelGramOperator::apply_block(std::span<const double> x,
                                     std::span<double> y,
                                     std::size_t cols) const {
  FUNNEL_REQUIRE(x.size() >= omega_ * cols && y.size() >= omega_ * cols,
                 "apply_block operand too small");
  for (std::size_t b = 0; b < cols; ++b) {
    apply_strided(x.data() + b, y.data() + b, cols);
  }
}

}  // namespace funnel::linalg

// Differential suite for the production SST scorer: the warm-started
// default IkaSst vs per-window cold restarts of the same scorer, plus the
// bit-exactness contract of the Hankel kernel it runs on.
//
// The Hankel kernel (linalg/hankel.cpp) computes both Gram products as
// correlations of the window with a vector and keeps four independent sums
// in registers per pass. It never splits or reorders one sum: each starts
// at +0.0 and adds its products in ascending index order, as the plain
// double loops it replaced did, so its outputs are those loops' bit for
// bit. Those loops are kept below as the reference.
//
// The locked-down invariants:
//   * HankelGramOperator::apply and apply_block are bit-identical to the
//     scalar reference loops over every small geometry and over windows of
//     signed zeros, subnormals, huge values and non-finite samples.
//   * Every IkaSst score (full, cascaded and cold-restarted, ω 5/9/15, the
//     three KPI classes) hashes to a constant computed with the scalar
//     kernel.
//   * A warm-started scorer tracks a scorer cold-restarted before every
//     window within a per-window tolerance, and the final alarm verdicts
//     are byte-identical over the seed corpora and chaos-faulted series.
//     (Fidelity against the exact SVD scorer is guarded separately by
//     detect_sst_fidelity_test's correlation floor.)
//   * Retargeting a warm scorer onto an unrelated series (no reset())
//     re-converges instead of poisoning scores.
//   * reset() fully clears warm state: score, reset, re-score is
//     byte-identical (the ThreadPool per-slot reuse contract).
//   * Scoring a window allocates nothing once the scorer exists, suppressed
//     or scored (this binary counts every operator new).
//   * SortedHalves' incremental medians and MADs are bit-identical to
//     funnel::median and funnel::mad over the standardized halves.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "detect/sst_common.h"
#include "linalg/hankel.h"
#include "tsdb/series.h"
#include "workload/faults.h"
#include "workload/generators.h"
#include "workload/stream.h"

// Every operator new in this binary (the array and nothrow forms forward to
// it) is counted, then served by malloc. Kept out of line so the compiler
// does not pair a new-expression with the free() inside.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace funnel::detect {
namespace {

constexpr SstGeometry kGeom{.omega = 9, .eta = 3};

std::vector<double> class_series(tsdb::KpiClass cls, std::uint64_t seed,
                                 MinuteTime len, double shift = 0.0,
                                 MinuteTime tc = 0) {
  workload::KpiStream s(workload::make_default(cls, Rng(seed)));
  if (shift != 0.0) s.add_effect(workload::LevelShift{tc, shift});
  return workload::render(s, 0, len);
}

// ---------------------------------------------------------------------------
// Hankel kernel: bit-exactness vs the scalar reference loops.
// ---------------------------------------------------------------------------

// The scalar loop nests the register kernel replaced, kept as its
// reference. apply(): t = Bᵀx, then y = B·t, each sum in a local.
void reference_apply(std::span<const double> window, std::size_t omega,
                     std::size_t count, std::span<const double> x,
                     std::span<double> y) {
  std::vector<double> t(count);
  for (std::size_t j = 0; j < count; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < omega; ++i) acc += window[j + i] * x[i];
    t[j] = acc;
  }
  for (std::size_t i = 0; i < omega; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < count; ++j) acc += window[j + i] * t[j];
    y[i] = acc;
  }
}

// apply_block(): the blocked nest over a row-major block of `cols` vectors,
// each sum accumulated in memory, unit-stride over the block columns.
void reference_apply_block(std::span<const double> window, std::size_t omega,
                           std::size_t count, std::span<const double> x,
                           std::span<double> y, std::size_t cols) {
  std::vector<double> scratch(count * cols, 0.0);
  for (std::size_t j = 0; j < count; ++j) {
    double* trow = scratch.data() + j * cols;
    for (std::size_t i = 0; i < omega; ++i) {
      const double w = window[j + i];
      const double* xrow = x.data() + i * cols;
      for (std::size_t b = 0; b < cols; ++b) trow[b] += w * xrow[b];
    }
  }
  std::fill(y.begin(), y.begin() + omega * cols, 0.0);
  for (std::size_t i = 0; i < omega; ++i) {
    double* yrow = y.data() + i * cols;
    for (std::size_t j = 0; j < count; ++j) {
      const double w = window[j + i];
      const double* trow = scratch.data() + j * cols;
      for (std::size_t b = 0; b < cols; ++b) yrow[b] += w * trow[b];
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// `got` has the reference's bits, or, where the reference is NaN, is NaN.
//
// The one allowance is the sign and payload of a NaN. Where both operands
// of a multiply or an add are NaN, x86 keeps the first operand's NaN, and
// the compiler orders the operands of a commutative operation as its
// register allocation suits: the blocked nest added a sum from memory into
// its product, and the kernel's register pairs differ among themselves.
// IkaSst never observes such a NaN: a NaN in C·B makes sym_eigen run out
// of sweeps (or, with η = 1, Lanczos refuse its seed), and a NaN in the
// past operator's output ends the QL iteration, whatever the NaN's sign.
void expect_same(double got, double want, const std::string& where) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << where << ": " << got << " vs NaN";
  } else {
    EXPECT_EQ(bits(got), bits(want)) << where << ": " << got << " vs " << want;
  }
}

// apply() per column and apply_block() over the whole block against their
// references, and apply_block() against apply() bit for bit (one kernel,
// so NaNs included). Returns apply_block()'s outputs.
std::vector<double> expect_kernel_matches_reference(std::span<const double> window,
                                            std::size_t omega,
                                            std::size_t count,
                                            std::span<const double> x,
                                            std::size_t cols) {
  const linalg::HankelGramOperator op(window, omega, count);
  const std::string geometry = "omega " + std::to_string(omega) + " count " +
                               std::to_string(count) + " cols " +
                               std::to_string(cols) + " at ";
  std::vector<double> by_column(omega * cols);
  std::vector<double> xi(omega), yi(omega), want(omega);
  for (std::size_t b = 0; b < cols; ++b) {
    for (std::size_t i = 0; i < omega; ++i) xi[i] = x[i * cols + b];
    op.apply(xi, yi);
    reference_apply(window, omega, count, xi, want);
    for (std::size_t i = 0; i < omega; ++i) {
      expect_same(yi[i], want[i],
                  "apply: " + geometry + std::to_string(i * cols + b));
      by_column[i * cols + b] = yi[i];
    }
  }
  std::vector<double> y(omega * cols), blocked(omega * cols);
  op.apply_block(x, y, cols);
  reference_apply_block(window, omega, count, x, blocked, cols);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(bits(y[i]), bits(by_column[i]))
        << "apply_block vs apply: " << geometry << i;
    expect_same(y[i], blocked[i],
                "apply_block: " + geometry + std::to_string(i));
  }
  return y;
}

TEST(HankelBlockKernel, BitIdenticalToScalarReferenceOverGeometries) {
  Rng rng(314);
  std::size_t checked = 0;
  std::size_t tails = 0;  ///< geometries whose row counts are not 4k
  for (std::size_t omega = 1; omega <= 16; ++omega) {
    for (std::size_t count = 1; count <= 16; ++count) {
      for (std::size_t cols = 1; cols <= 5; ++cols) {
        std::vector<double> window(linalg::hankel_span(omega, count));
        for (double& v : window) v = rng.gaussian(0.0, 3.0);
        std::vector<double> x(omega * cols);
        for (double& v : x) v = rng.gaussian(0.0, 1.0);
        checked += expect_kernel_matches_reference(window, omega, count, x,
                                                   cols).size();
        if (omega % 4 != 0 || count % 4 != 0) ++tails;
      }
    }
  }
  EXPECT_EQ(checked, 5u * 16u * 17u / 2u * 16u * 3u);  // Σω · 16 counts · Σcols
  EXPECT_GT(tails, 0u);
}

// Windows whose products underflow, overflow, cancel to signed zeros or
// turn non-finite: every output bit, NaN payloads and zero signs included,
// must match the reference.
TEST(HankelBlockKernel, BitIdenticalToScalarReferenceOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double min_sub = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> palettes = {
      {0.0, -0.0},
      {0.0, -0.0, min_sub, -min_sub, 3.0e-310, -7.5e-320, 1.0e-300},
      {1e300, -1e300, 3.0, -0.0},
      {nan, kInf, -kInf, 1.0, 0.0},
      {nan, 1e300, -1e300, min_sub, -0.0, kInf},
  };
  Rng rng(2718);
  std::size_t nans = 0, infs = 0, zeros = 0, negative_zeros = 0,
              subnormals = 0, finite = 0;
  for (const std::vector<double>& palette : palettes) {
    for (const std::size_t omega : {1, 2, 5, 9, 15}) {
      for (const std::size_t count : {1, 3, 4, 9, 16}) {
        for (const std::size_t cols : {1, 3}) {
          std::vector<double> window(linalg::hankel_span(omega, count));
          for (double& v : window) {
            v = rng.uniform() < 0.5
                    ? palette[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(palette.size()) - 1))]
                    : rng.gaussian(0.0, 2.0);
          }
          std::vector<double> x(omega * cols);
          for (double& v : x) {
            v = rng.uniform() < 0.25 ? -0.0 : rng.gaussian(0.0, 1.0);
          }
          for (const double v :
               expect_kernel_matches_reference(window, omega, count, x,
                                               cols)) {
            if (std::isnan(v)) {
              ++nans;
            } else if (std::isinf(v)) {
              ++infs;
            } else if (v == 0.0) {
              ++(std::signbit(v) ? negative_zeros : zeros);
            } else if (std::fpclassify(v) == FP_SUBNORMAL) {
              ++subnormals;
            } else {
              ++finite;
            }
          }
        }
      }
    }
  }
  // Every kind of output the palettes are for occurred, except -0.0: each
  // sum starts at +0.0, and +0.0 + -0.0 is +0.0.
  EXPECT_GT(nans, 0u);
  EXPECT_GT(infs, 0u);
  EXPECT_GT(zeros, 0u);
  EXPECT_EQ(negative_zeros, 0u);
  EXPECT_GT(subnormals, 0u);
  EXPECT_GT(finite, 0u);
}

// ---------------------------------------------------------------------------
// Golden score hash: every score bit of the production scorer.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// FNV-1a over every score of a full and a reset-before-every-window
// scorer, for ω 5, 9 and 15 on the three KPI classes, each series with a
// level shift and a NaN gap. The constant was computed on the scorer
// before it had past-side exits, whose scores the scalar Hankel loops
// pinned; a kernel that reorders or splits any sum changes it, and so does
// an exit that returns other bits than the full loop.
//
// A second hash covers a cascaded scorer's column, each score with its
// gate decision. It pins where the exits fire; the loop checks what they
// may return: 0 for a suppressed window, whose full score is ≤ the
// threshold, and the full score's bits for every other one.
TEST(IkaSstGolden, ScoreBitsMatchScalarKernelHash) {
  constexpr std::uint64_t kFullColdGolden = 0xb3a6dff1f926d2a5ULL;
  constexpr std::uint64_t kCascadedGolden = 0xc3b1cb1386225819ULL;
  constexpr double kThreshold = 0.22;
  std::uint64_t full_cold = 0xcbf29ce484222325ULL;
  std::uint64_t cascaded_hash = 0xcbf29ce484222325ULL;
  std::size_t windows = 0;
  std::size_t bound_suppressed = 0;
  for (const std::size_t omega : {5, 9, 15}) {
    const SstGeometry geo{.omega = omega, .eta = 3};
    for (const tsdb::KpiClass cls :
         {tsdb::KpiClass::kSeasonal, tsdb::KpiClass::kStationary,
          tsdb::KpiClass::kVariable}) {
      std::vector<double> series =
          class_series(cls, 40 + omega, 480, 8.0, 300);
      std::fill(series.begin() + 150, series.begin() + 153,
                std::numeric_limits<double>::quiet_NaN());
      const auto span = std::span<const double>(series);
      const std::size_t w = geo.window();
      IkaSst full(geo);
      IkaSst cascaded(geo);
      IkaSst cold(geo);
      for (std::size_t i = 0; i + w <= series.size(); ++i) {
        const std::span<const double> window = span.subspan(i, w);
        const double f = full.score(window);
        full_cold = fnv1a(full_cold, bits(f));
        GateDecision d = GateDecision::kScored;
        const double c = cascaded.score(window, kThreshold, &d);
        cascaded_hash = fnv1a(cascaded_hash, bits(c));
        cascaded_hash = fnv1a(cascaded_hash, static_cast<std::uint64_t>(d));
        if (d == GateDecision::kVarianceSuppressed ||
            d == GateDecision::kBoundSuppressed) {
          EXPECT_EQ(bits(c), bits(0.0)) << "window " << i;
          EXPECT_LE(f, kThreshold) << "window " << i << " omega " << omega;
        } else {
          EXPECT_EQ(bits(c), bits(f)) << "window " << i << " omega " << omega;
        }
        if (d == GateDecision::kBoundSuppressed) ++bound_suppressed;
        cold.reset();
        full_cold = fnv1a(full_cold, bits(cold.score(window)));
        ++windows;
      }
    }
  }
  EXPECT_GT(windows, 3000u);
  EXPECT_GT(bound_suppressed, 0u);
  EXPECT_EQ(full_cold, kFullColdGolden) << "score hash 0x" << std::hex
                                        << full_cold;
  EXPECT_EQ(cascaded_hash, kCascadedGolden)
      << "cascaded hash 0x" << std::hex << cascaded_hash;
}

// ---------------------------------------------------------------------------
// Warm vs cold: tolerance-bounded scores, byte-identical verdicts.
// ---------------------------------------------------------------------------

struct Corpus {
  tsdb::KpiClass cls;
  std::uint64_t seed;
  double shift;  ///< level shift at minute 300 (0 = clean)
};

// Warm-vs-cold differential: the default scorer run warm-started across
// the series must match the same scorer cold-restarted before every
// window — tolerance-bounded per window and with byte-identical alarm
// verdicts.
//
// The drift scale: score = x̂ · factor (Eq. 11) with x̂ ∈ [0.25, 1] and a
// factor the warm and cold runs share exactly (it depends only on the
// window), so warm-vs-cold drift is x̂-level drift stretched by the
// factor. The bound below is therefore relative to max(1, factor).
constexpr double kWarmDriftTolerance = 0.45;

// Eq. 11 damping factor of one window, recomputed the way the scorer does.
double window_factor(std::span<const double> window) {
  const std::vector<double> z = standardize_window(window, kGeom.half());
  if (z.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::span<const double> zs(z);
  return robust_score_factor(zs.subspan(0, kGeom.half()),
                             zs.subspan(kGeom.half(), kGeom.half()));
}

class WarmColdDifferential : public ::testing::TestWithParam<Corpus> {};

TEST_P(WarmColdDifferential, DriftBoundedAndVerdictsByteIdentical) {
  const Corpus c = GetParam();
  const std::vector<double> series =
      class_series(c.cls, c.seed, 520, c.shift, 300);

  IkaSst warm(kGeom);
  IkaSst cold(kGeom);
  const std::size_t w = kGeom.window();
  const auto span = std::span<const double>(series);
  std::vector<double> sw, sc;
  for (std::size_t i = 0; i + w <= series.size(); ++i) {
    sw.push_back(warm.score(span.subspan(i, w)));
    cold.reset();
    sc.push_back(cold.score(span.subspan(i, w)));
  }

  // Per-window: NaN patterns identical, finite scores within tolerance.
  for (std::size_t i = 0; i < sw.size(); ++i) {
    ASSERT_EQ(std::isnan(sw[i]), std::isnan(sc[i])) << "window " << i;
    if (std::isnan(sw[i])) continue;
    const double factor = window_factor(span.subspan(i, w));
    EXPECT_NEAR(sw[i], sc[i], kWarmDriftTolerance * std::max(1.0, factor))
        << "window " << i;
  }

  // Final verdicts: the alarm sets must be byte-identical under the
  // library alarm policy.
  const AlarmPolicy policy{.threshold = 0.22, .persistence = 7,
                           .patience = 10};
  const auto aw = all_alarms(sw, w, 0, policy);
  const auto ac = all_alarms(sc, w, 0, policy);
  ASSERT_EQ(aw.size(), ac.size());
  for (std::size_t i = 0; i < aw.size(); ++i) {
    EXPECT_EQ(aw[i].minute, ac[i].minute);
    EXPECT_EQ(aw[i].first_window, ac[i].first_window);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedCorpora, WarmColdDifferential,
    ::testing::Values(
        Corpus{tsdb::KpiClass::kStationary, 11, 0.0},
        Corpus{tsdb::KpiClass::kStationary, 11, 8.0},
        Corpus{tsdb::KpiClass::kStationary, 23, 8.0},
        Corpus{tsdb::KpiClass::kSeasonal, 31, 0.0},
        Corpus{tsdb::KpiClass::kSeasonal, 31, 8.0},
        Corpus{tsdb::KpiClass::kVariable, 53, 0.0},
        Corpus{tsdb::KpiClass::kVariable, 53, 8.0},
        Corpus{tsdb::KpiClass::kVariable, 61, 8.0}));

// On some variable-class series warm and cold runs disagree on *re-fire*
// timing: during a sustained exceedance the policy re-alarms every
// `persistence` windows, so one near-threshold score flip shifts every
// later re-fire in that episode by a window or two. The verdicts that
// matter — how many alarms and episodes, and when each episode starts —
// must still agree. Seed 47 is a measured instance: 6 alarms in 4 episodes
// on both sides, but the second episode starts one minute earlier under
// the warm scorer than under per-window cold restarts (minute 326 vs 327
// at shift 0, 328 vs 329 at shift 8), so onsets are held to one minute.
TEST(WarmColdDifferential, RefireJitterNeverChangesEpisodes) {
  for (const double shift : {0.0, 8.0}) {
    const std::vector<double> series =
        class_series(tsdb::KpiClass::kVariable, 47, 520, shift, 300);
    IkaSst warm(kGeom);
    IkaSst cold(kGeom);
    const std::size_t w = kGeom.window();
    const auto span = std::span<const double>(series);
    std::vector<double> sw, sc;
    for (std::size_t i = 0; i + w <= series.size(); ++i) {
      sw.push_back(warm.score(span.subspan(i, w)));
      cold.reset();
      sc.push_back(cold.score(span.subspan(i, w)));
    }
    for (std::size_t i = 0; i < sw.size(); ++i) {
      ASSERT_EQ(std::isnan(sw[i]), std::isnan(sc[i])) << "window " << i;
      if (std::isnan(sw[i])) continue;
      const double factor = window_factor(span.subspan(i, w));
      EXPECT_NEAR(sw[i], sc[i], kWarmDriftTolerance * std::max(1.0, factor))
          << "window " << i;
    }
    const AlarmPolicy policy{.threshold = 0.22, .persistence = 7,
                             .patience = 10};
    const auto aw = all_alarms(sw, w, 0, policy);
    const auto ac = all_alarms(sc, w, 0, policy);
    EXPECT_EQ(aw.size(), ac.size()) << "shift " << shift;
    const auto ew = alarm_episodes(aw, 30);
    const auto ec = alarm_episodes(ac, 30);
    ASSERT_EQ(ew.size(), ec.size()) << "shift " << shift;
    for (std::size_t i = 0; i < ew.size(); ++i) {
      EXPECT_LE(std::abs(ew[i].minute - ec[i].minute), 1)
          << "shift " << shift << " episode " << i << ": warm onset "
          << ew[i].minute << " vs cold " << ec[i].minute;
    }
  }
}

// The fault-injection chaos grid, replayed through the default scorer:
// faulted telemetry (NaN bursts, stuck-at runs, drops reconciled to NaN
// gaps) must keep the warm-vs-cold drift bound and byte-identical alarm
// verdicts — NaN gaps interrupt the warm recurrence mid-series, and the
// warm basis has to pick the stream back up on the far side.
TEST(WarmScorerChaos, FaultedSeriesVerdictsByteIdentical) {
  const char* kSpecs[] = {
      "nan=0.02x4",
      "drop=0.05",
      "stuck=0.01x8",
      "drop=0.03,nan=0.01x4,stuck=0.005x8",
  };
  for (const char* spec_str : kSpecs) {
    const workload::FaultSpec spec = workload::parse_fault_spec(spec_str);
    const std::vector<double> clean =
        class_series(tsdb::KpiClass::kStationary, 5, 520, 8.0, 300);
    tsdb::TimeSeries clean_ts(0, clean);
    workload::FaultInjector inj(spec, 99);
    const tsdb::TimeSeries dirty = workload::apply_faults(clean_ts, inj);
    const auto series = dirty.values();

    IkaSst warm(kGeom);
    IkaSst cold(kGeom);
    const std::size_t w = kGeom.window();
    const auto span = std::span<const double>(series);
    std::vector<double> sw, sc;
    for (std::size_t i = 0; i + w <= series.size(); ++i) {
      sw.push_back(warm.score(span.subspan(i, w)));
      cold.reset();
      sc.push_back(cold.score(span.subspan(i, w)));
    }
    for (std::size_t i = 0; i < sw.size(); ++i) {
      ASSERT_EQ(std::isnan(sw[i]), std::isnan(sc[i]))
          << spec_str << " window " << i;
      if (std::isnan(sw[i])) continue;
      const double factor = window_factor(span.subspan(i, w));
      EXPECT_NEAR(sw[i], sc[i], kWarmDriftTolerance * std::max(1.0, factor))
          << spec_str << " window " << i;
    }

    const AlarmPolicy policy{.threshold = 0.22, .persistence = 7,
                             .patience = 10};
    const auto aw = all_alarms(sw, w, 0, policy);
    const auto ac = all_alarms(sc, w, 0, policy);
    ASSERT_EQ(aw.size(), ac.size()) << spec_str;
    for (std::size_t i = 0; i < aw.size(); ++i) {
      EXPECT_EQ(aw[i].minute, ac[i].minute) << spec_str;
      EXPECT_EQ(aw[i].first_window, ac[i].first_window) << spec_str;
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-state lifecycle.
// ---------------------------------------------------------------------------

// Regression: pointing a warm scorer at an unrelated series without
// reset() must re-converge, not poison subsequent scores.
TEST(WarmStartLifecycle, RetargetWithoutResetReconverges) {
  const std::vector<double> a =
      class_series(tsdb::KpiClass::kStationary, 3, 300);
  const std::vector<double> b =
      class_series(tsdb::KpiClass::kVariable, 91, 300, 8.0, 150);

  IkaSst retargeted(kGeom);
  const std::size_t w = kGeom.window();
  const auto sa = std::span<const double>(a);
  for (std::size_t i = 0; i + w <= a.size(); ++i) {
    (void)retargeted.score(sa.subspan(i, w));  // warm up on series A
  }

  IkaSst fresh(kGeom);
  const auto sb = std::span<const double>(b);
  const std::size_t burn_in = 5;  // warm sweeps re-converge within a few windows
  for (std::size_t i = 0; i + w <= b.size(); ++i) {
    const double stale = retargeted.score(sb.subspan(i, w));
    const double clean = fresh.score(sb.subspan(i, w));
    ASSERT_EQ(std::isnan(stale), std::isnan(clean)) << "window " << i;
    if (std::isnan(stale)) continue;
    EXPECT_TRUE(std::isfinite(stale)) << "window " << i;
    if (i >= burn_in) {
      EXPECT_NEAR(stale, clean, 0.12) << "window " << i;
    }
  }
}

// reset() must clear every piece of warm state: a reset scorer replays the
// series byte-for-byte (the ThreadPool per-slot reuse contract).
TEST(WarmStartLifecycle, ResetReplaysByteIdentical) {
  const std::vector<double> series =
      class_series(tsdb::KpiClass::kVariable, 13, 260, 8.0, 130);
  IkaSst warm(kGeom);
  const auto first = score_series(warm, series);
  warm.reset();
  const auto second = score_series(warm, series);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (std::isnan(first[i])) {
      EXPECT_TRUE(std::isnan(second[i])) << "window " << i;
    } else {
      EXPECT_EQ(first[i], second[i]) << "window " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-window storage: no heap allocation per window.
// ---------------------------------------------------------------------------

// The cascaded and the full scorer over a series that alarms, is
// suppressed, holds a NaN gap and meets a reset(): after the first window
// neither allocates.
TEST(IkaSstStorage, NoHeapAllocationPerWindow) {
  std::vector<double> series =
      class_series(tsdb::KpiClass::kVariable, 17, 520, 8.0, 300);
  std::fill(series.begin() + 150, series.begin() + 154,
            std::numeric_limits<double>::quiet_NaN());
  const auto span = std::span<const double>(series);
  const std::size_t w = kGeom.window();

  IkaSst cascaded(kGeom);
  IkaSst full(kGeom);
  std::size_t suppressed_windows = 0;
  std::size_t scored_windows = 0;
  std::size_t dirty_windows = 0;
  std::size_t windows = 0;
  std::size_t allocations = 0;
  for (std::size_t i = 0; i + w <= series.size(); ++i) {
    const std::size_t before = g_allocations.load();
    if (i == 400) {
      cascaded.reset();
      full.reset();
    }
    GateDecision d = GateDecision::kScored;
    (void)cascaded.score(span.subspan(i, w), 0.22, &d);
    (void)full.score(span.subspan(i, w));
    const std::size_t made = g_allocations.load() - before;
    if (i == 0) continue;
    allocations += made;
    ++windows;
    if (d == GateDecision::kDirty) {
      ++dirty_windows;
    } else if (d == GateDecision::kScored) {
      ++scored_windows;
    } else {
      ++suppressed_windows;
    }
  }
  EXPECT_GT(suppressed_windows, 0u);
  EXPECT_GT(scored_windows, 0u);
  EXPECT_GT(dirty_windows, 0u);
  EXPECT_EQ(allocations, 0u)
      << static_cast<double>(allocations) / static_cast<double>(windows)
      << " allocations per window";
}

// ---------------------------------------------------------------------------
// Sorted halves: bit-identical to the copy-and-select statistics.
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Random integer-valued windows (heavy ties, flat stretches, a -0.0) walked
// through slides, a jump, a reset() and a NaN window: each standardized
// window, median and MAD must equal standardize_window(), funnel::median
// and funnel::mad bit for bit.
TEST(SortedHalves, StatisticsBitIdenticalToSelection) {
  Rng rng(2024);
  std::vector<double> series(700);
  for (double& v : series) v = static_cast<double>(rng.uniform_int(-3, 3));
  std::fill(series.begin() + 100, series.begin() + 140, 2.0);  // MAD 0
  std::fill(series.begin() + 200, series.begin() + 290, 1.0);  // flat window
  series[330] = std::numeric_limits<double>::quiet_NaN();
  series[520] = -0.0;

  const std::size_t h = kGeom.half();
  const std::size_t w = kGeom.window();
  SortedHalves halves(h);
  std::vector<double> z(w);
  std::size_t checked = 0;
  std::size_t dirty = 0;
  const auto check = [&](std::size_t start) {
    const std::span<const double> window(series.data() + start, w);
    const std::vector<double> expected = standardize_window(window, h);
    const std::optional<HalfStats> got = halves.standardize(window, z);
    ASSERT_EQ(got.has_value(), !expected.empty()) << "window " << start;
    if (!got) {
      ++dirty;
      return;
    }
    ASSERT_EQ(std::memcmp(z.data(), expected.data(), w * sizeof(double)), 0)
        << "window " << start;
    const std::span<const double> past(expected.data(), h);
    const std::span<const double> future(expected.data() + h, h);
    EXPECT_TRUE(same_bits(got->median_a, median(past))) << "window " << start;
    EXPECT_TRUE(same_bits(got->mad_a, mad(past))) << "window " << start;
    EXPECT_TRUE(same_bits(got->median_b, median(future))) << "window " << start;
    EXPECT_TRUE(same_bits(got->mad_b, mad(future))) << "window " << start;
    EXPECT_TRUE(same_bits(robust_score_factor(*got),
                          robust_score_factor(past, future)))
        << "window " << start;
    ++checked;
  };
  for (std::size_t i = 0; i < 250; ++i) check(i);    // slides
  for (std::size_t i = 300; i < 450; ++i) check(i);  // a jump, the NaN
  halves.reset();
  for (std::size_t i = 450; i + w <= series.size(); ++i) check(i);
  EXPECT_GT(dirty, 0u);
  EXPECT_GT(checked, 500u);
}

}  // namespace
}  // namespace funnel::detect

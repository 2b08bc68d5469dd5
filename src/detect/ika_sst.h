// FUNNEL's production detector: improved SST accelerated with the Implicit
// Krylov Approximation (§3.2.3, Idé & Tsuda 2007).
//
// Identical score semantics to ImprovedSst (Eq. 9-11) but with every dense
// decomposition replaced by the cheap path:
//   * the Gram matrices C = B·Bᵀ (past) and A·Aᵀ (future) are never formed —
//     HankelGramOperator applies them implicitly from the raw samples
//     ("matrix compression and implicit inner product calculation");
//   * the future eigen-directions β₁..β_eta are maintained by warm-started
//     block power iteration with Rayleigh-Ritz extraction: consecutive
//     windows overlap in all but one sample, so the previous window's basis
//     is an excellent starting guess and two or three iterations suffice
//     (Idé & Tsuda's "feedback" mechanism); a cold start simply iterates
//     longer;
//   * each φᵢ is read off a k-step Lanczos run on the past operator seeded
//     at βᵢ: in the Krylov basis the seed is e₁, so
//     φᵢ ≈ 1 − Σ_{j≤eta} x_j[0]²  (Eq. 13)
//     with x_j the leading eigenvectors of the k×k tridiagonal T_k,
//     extracted by the QL iteration; k = 2·eta or 2·eta−1 (Eq. 14).
//
// The warm start makes the scorer stateful: feeding it consecutive sliding
// windows (the only access pattern in FUNNEL) is both fastest and most
// accurate. Non-consecutive windows are still correct — the iteration
// re-converges — just marginally slower.
//
// Both Gram products run on one Hankel kernel (linalg/hankel.cpp) that
// keeps four independent sums in registers per pass, and the Ritz rotation
// Y·Q sums each entry in a register. Neither splits or reorders a sum:
// each starts at +0.0 and adds its terms in the order of the plain loops,
// so every score is those loops' bit for bit (detect_sst_warmstart_test
// pins the kernel against them and every score against a golden hash).
//
// The past side stops as soon as its remaining directions cannot change
// what the window returns. After direction i the running sums w = Σλφ and
// t = Σλ are final for the directions read; the unread ones weigh at most
// R = Σ_{j>i} max(λ_j, 0), summed forward, and each of their φ is at most
// 1, so u = (w + R)/(t + R) bounds the final w/t (w ≤ t, so the ratio
// grows with every unread term). Two exits follow, checked in this order:
//   (1) u ≤ novelty_floor·(1−δ): x̂ is the floor, so the score is
//       novelty_floor·factor, the bits the full loop returns. It applies on
//       every entry, score(window) included.
//   (2) max(u, novelty_floor)·factor ≤ threshold·(1−δ), on the threshold
//       entry only (score(window) passes −∞): the full score is ≤ the
//       threshold, so the window returns 0 as suppressed, the contract the
//       Eq. 11 factor gate already keeps.
// δ = kExitSlack covers rounding. Both paths share the computed w and t;
// each computed λφ is ≤ λ (φ ≤ 1, and rounding is monotone), so w ≤ t
// holds in floating point too. The full loop's w/t and û, the computed
// u, then each take at most 2η non-negative sums plus one division, every
// one rounding by a factor within 1 ± ε, ε = 2⁻⁵³, so the full loop's
// w/t is at most û·(1 + (3η + 5)ε), and the products forming the score
// and the two bounds add four roundings more. That stays under 1/(1−δ)
// for every η < 10⁶ (the geometry keeps η < ω), so x̂ after exit (1) is
// exactly the floor, and the full score after exit (2) is ≤ the
// threshold. Every comparison reads `x <= bound`, so a NaN never exits. A
// direction an exit skips is never computed, so a QL non-convergence it
// would have thrown (never observed) is skipped with it.
//
// Scoring a window allocates nothing. Every buffer a window needs — the
// standardized window, the two Hankel operators (refilled in place), the
// block product C·B, the Rayleigh-Ritz matrix T and its eigenpairs, the
// Lanczos basis and T_k, the QL row — is sized once by the constructor, and
// the linalg primitives run on that storage. The Eq. 11 statistics come
// from SortedHalves (sst_common.h): each half's raw samples stay sorted
// across consecutive windows, one erase and one insert per slide, so the
// medians and MADs cost an O(ω) walk instead of nine selections over fresh
// copies. Every score is bit-identical to the copy-and-select computation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "detect/scorer.h"
#include "detect/sst_common.h"
#include "linalg/hankel.h"
#include "linalg/lanczos.h"
#include "linalg/matrix.h"

namespace funnel::detect {

/// What the threshold-aware IkaSst::score() did with one window.
enum class GateDecision : std::uint8_t {
  kDirty = 0,               ///< non-finite samples: NaN, only standardized
  kVarianceSuppressed = 1,  ///< factor ≤ threshold: 0, past side skipped
  kScored = 2,              ///< the window's score, bit for bit
  kBoundSuppressed = 3,     ///< past-side exit (2): 0, rest of it skipped
};

struct IkaParams {
  /// Power-iteration sweeps on a cold start (no previous basis).
  int cold_iterations = 30;
  /// Sweeps when warm-started from the previous window's basis.
  int warm_iterations = 3;
};

class IkaSst final : public ChangeScorer {
 public:
  explicit IkaSst(SstGeometry geometry = {}, IkaParams params = {});

  std::size_t window_size() const override { return geo_.window(); }
  std::size_t change_offset() const override { return geo_.half(); }
  double score(std::span<const double> window) override;
  const char* name() const override { return "funnel-ika-sst"; }

  /// Threshold-aware score. Standardizes the window and runs the warm
  /// future sweep exactly as score() does, so the basis evolves the same
  /// whatever the threshold, then computes the Eq. 11 factor. Since
  /// x̂ ≤ 1 the factor bounds the score: when it is ≤ `threshold` the
  /// window cannot exceed it, so this returns 0 without the past-side
  /// Lanczos/QL work (kVarianceSuppressed). Past-side exit (2) returns 0
  /// the same way once the unread directions cannot lift the score over
  /// `threshold` (kBoundSuppressed). Otherwise it returns exactly what
  /// score() returns: NaN for a window with non-finite samples (kDirty),
  /// the score otherwise (kScored). `decision` may be null.
  double score(std::span<const double> window, double threshold,
               GateDecision* decision);

  /// δ of the past-side exits (see the header comment).
  static constexpr double kExitSlack = 1e-9;

  const SstGeometry& geometry() const { return geo_; }
  const IkaParams& params() const { return params_; }

  /// Drop the warm-start basis and the sorted halves — e.g. when
  /// retargeting the scorer to a different KPI stream, or when a ThreadPool
  /// slot reuses the scorer for the next metric. After reset() every
  /// subsequent score is byte-identical to a freshly constructed scorer's.
  void reset() {
    warm_ = false;
    halves_.reset();
  }

 private:
  /// `iterations` block power sweeps with Rayleigh-Ritz extraction on
  /// future_op_, rotating future_basis_; returns the Ritz values.
  std::span<const double> ritz_iterate(int iterations);

  SstGeometry geo_;
  IkaParams params_;
  linalg::Matrix future_basis_;  ///< omega x eta, persisted across windows
  bool warm_ = false;
  SortedHalves halves_;

  // Per-window storage (see the header comment).
  std::vector<double> z_;  ///< the standardized window
  linalg::HankelGramOperator future_op_;
  linalg::HankelGramOperator past_op_;
  linalg::Matrix y_;                   ///< C·B
  linalg::Matrix t_;                   ///< Bᵀ·C·B, clobbered by its solve
  linalg::Matrix next_;                ///< the rotated basis
  linalg::Vector ritz_values_;
  linalg::Matrix ritz_vectors_;
  linalg::Vector beta_;  ///< one future direction, the Lanczos seed
  linalg::LanczosWorkspace lanczos_;  ///< T_k, then its QL solve
  linalg::Matrix ql_row0_;  ///< first components of T_k's eigenvectors
};

}  // namespace funnel::detect

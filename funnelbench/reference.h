// The host-speed reference of the FUNNEL benchmark (README.md, "Why the
// costs are scaled to a reference host").
//
// On a shared virtual machine the CPU time of one binary moves with the load
// of the host: the same build read 1.8 and 2.6 ms per assessed item half an
// hour apart, and a fixed piece of work runs 20% faster or slower on one vCPU
// for seconds at a time. So every timed round and every set-up runs beside a
// sampler: a separate process that, every 50 ms, times one chunk of fixed
// reference work on its own CPU clock (10% of one vCPU). The chunk does what
// the measured layers do most — a copy of the IKA-SST scoring kernel
// (standardize a window, warm block power sweeps over the Hankel
// lag-covariance with Rayleigh-Ritz extraction, a Lanczos run per direction)
// and a copy of the ingest-to-WAL loop (parse a sample line, index it, frame
// it with CRC32C, group-commit two frames per fwrite + fflush) — and is
// compiled from this directory only, so a change to src/ cannot move it;
// only the host can. A figure measured while the chunks took c times as long
// as on the reference guest is divided by c.
#pragma once

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace funnelbench {

/// CPU seconds of the two halves of one reference chunk on the 4-vCPU guest
/// the bounds were set on: scaled figures read as on that guest.
inline constexpr double kSstChunkS = 0.0033;
inline constexpr double kIngestChunkS = 0.0017;
/// The sampler starts one chunk every this many seconds.
inline constexpr double kSamplePeriodS = 0.050;

/// The sampler process (this binary with --reference-sampler DIR): time
/// chunks until stdin closes, then print the trimmed mean CPU seconds of
/// the SST half and of the ingest half, and the chunk count. `dir` holds
/// its scratch WAL file, removed after.
int run_reference_sampler(const std::string& dir);

/// What a piece of work is scaled by: the time of the whole chunk, or of its
/// SST half alone. Service traffic mixes parsing, system calls and scoring
/// and tracks the whole chunk (ingest_durable's CPU per sample moved with it
/// at a log-log slope of 0.98, r 0.97, over ten runs); batch_review is 94%
/// scoring and tracks the SST half (slope 1.10, r 1.00, over six runs),
/// which slows less than the ingest half on a busy host.
enum class Mix { kWholeChunk, kSstHalf };

/// Samples the host's speed beside pieces of work and scales each piece to
/// the reference guest.
class HostSpeed {
 public:
  explicit HostSpeed(std::string dir) : dir_(std::move(dir)) {}
  /// Stops and waits for a sampler still running (a piece that threw).
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;
  /// Start the sampler, just before a piece of work.
  void begin();
  /// Stop the sampler, just after the piece of work that measured `value`,
  /// and return `value` divided by the host's slowness over the piece: the
  /// mean chunk time (or SST half time) over its value on the reference
  /// guest.
  double scale(double value, Mix mix = Mix::kWholeChunk);
  /// Mean CPU seconds of each half over each piece so far.
  const std::vector<double>& sst_s() const { return sst_s_; }
  const std::vector<double>& ingest_s() const { return ingest_s_; }

 private:
  std::string dir_;
  pid_t pid_ = 0;
  int stop_fd_ = -1;    ///< the sampler's stdin; closing it stops it
  int result_fd_ = -1;  ///< the sampler's stdout
  std::vector<double> sst_s_, ingest_s_;

  /// Stop the running sampler and return what it printed.
  std::string stop();
};

class Result;

/// The gated costs of one run, as measured and scaled to the reference host.
struct Costs {
  /// Process CPU seconds per set-up, and their median scaled to the
  /// reference host over the whole set-up phase.
  std::vector<double> setup_s;
  double setup_norm_s = 0.0;
  /// CPU seconds per operation, per round.
  std::vector<double> op_s, op_norm_s;
  /// Untraced: setup_s and norm_cpu_us_per_op, medians of the scaled
  /// figures. Traced: host.setup_s_raw, host.cpu_us_per_op_raw,
  /// host.ref_sst_ms and host.ref_ingest_ms. Either way a "# costs" line on
  /// stderr.
  void report(bool trace, const HostSpeed& speed, Result& result) const;
};

}  // namespace funnelbench

#include "reference.h"

#include <algorithm>
#include <array>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"

namespace funnelbench {

namespace {

using Vec = std::vector<double>;

// ---- the SST half: the production scorer's shape (omega 9, eta 3, warm
// future block with 3 sweeps, cold every 64 windows with 30, a 5-step
// Lanczos per future direction on the past operator) ----

constexpr std::size_t kOmega = 9;
constexpr std::size_t kEta = 3;
constexpr std::size_t kHalf = 2 * kOmega - 1;
constexpr std::size_t kKrylov = 2 * kEta - 1;

double median_of(Vec v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const auto lower = v.begin() + static_cast<std::ptrdiff_t>(mid);
    m = 0.5 * (m + *std::max_element(v.begin(), lower));
  }
  return m;
}

double mad_of(const Vec& v) {
  const double m = median_of(v);
  Vec d(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) d[i] = std::abs(v[i] - m);
  return median_of(std::move(d));
}

double dot(const Vec& a, const Vec& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double normalize(Vec& v) {
  const double n = std::sqrt(dot(v, v));
  if (n > 0) {
    for (double& x : v) x /= n;
  }
  return n;
}

/// Column-major dense block, columns handed out as copies as linalg does.
struct Block {
  std::size_t rows = 0, cols = 0;
  Vec a;
  Block(std::size_t r, std::size_t c) : rows(r), cols(c), a(r * c, 0.0) {}
  double& at(std::size_t i, std::size_t j) { return a[j * rows + i]; }
  Vec col(std::size_t j) const {
    return Vec(a.begin() + static_cast<std::ptrdiff_t>(j * rows),
               a.begin() + static_cast<std::ptrdiff_t>((j + 1) * rows));
  }
  void set_col(std::size_t j, const Vec& v) {
    std::copy(v.begin(), v.end(),
              a.begin() + static_cast<std::ptrdiff_t>(j * rows));
  }
};

/// y = H Hᵀ x for the omega x (half - omega + 1) Hankel matrix of `h`.
Vec gram_apply(const double* h, const Vec& x) {
  constexpr std::size_t count = kHalf - kOmega + 1;
  std::array<double, count> t{};
  for (std::size_t j = 0; j < count; ++j) {
    for (std::size_t i = 0; i < kOmega; ++i) t[j] += h[i + j] * x[i];
  }
  Vec y(kOmega, 0.0);
  for (std::size_t i = 0; i < kOmega; ++i) {
    for (std::size_t j = 0; j < count; ++j) y[i] += h[i + j] * t[j];
  }
  return y;
}

void orthonormalize(Block& b) {
  for (std::size_t j = 0; j < b.cols; ++j) {
    Vec c = b.col(j);
    for (std::size_t k = 0; k < j; ++k) {
      const Vec p = b.col(k);
      const double proj = dot(c, p);
      for (std::size_t i = 0; i < c.size(); ++i) c[i] -= proj * p[i];
    }
    if (normalize(c) <= 1e-12) {
      std::fill(c.begin(), c.end(), 0.0);
      c[j % c.size()] = 1.0;
    }
    b.set_col(j, c);
  }
}

/// Cyclic Jacobi eigen-decomposition of a small symmetric matrix (row-major
/// n x n): eigenvalues in diagonal order, eigenvectors as columns of `vec`.
void jacobi(std::size_t n, Vec m, Vec& values, Vec& vec) {
  vec.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) vec[i * n + i] = 1.0;
  for (int sweep = 0; sweep < 12; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        off += m[p * n + q] * m[p * n + q];
      }
    }
    if (off < 1e-22) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m[p * n + q];
        if (std::abs(apq) < 1e-300) continue;
        const double theta = (m[q * n + q] - m[p * n + p]) / (2 * apq);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1));
        const double c = 1 / std::sqrt(t * t + 1), s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m[k * n + p], mkq = m[k * n + q];
          m[k * n + p] = c * mkp - s * mkq;
          m[k * n + q] = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m[p * n + k], mqk = m[q * n + k];
          m[p * n + k] = c * mpk - s * mqk;
          m[q * n + k] = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vec[k * n + p], vkq = vec[k * n + q];
          vec[k * n + p] = c * vkp - s * vkq;
          vec[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }
  values.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) values[i] = m[i * n + i];
}

class SstCopy {
 public:
  double score(const double* window) {
    const Vec past_raw(window, window + kHalf);
    const double center = median_of(past_raw);
    double scale = 1.4826 * mad_of(past_raw);
    if (scale <= 0) scale = 1.0;
    Vec z(window, window + 2 * kHalf);
    for (double& x : z) x = (x - center) / scale;
    const Vec past(z.begin(), z.begin() + kHalf);
    const Vec future(z.begin() + kHalf, z.end());
    const double factor =
        std::max(std::abs(median_of(future) - median_of(past)), 0.0) *
        std::sqrt(std::abs(mad_of(future) - mad_of(past)));

    // Future: warm block power sweeps with Rayleigh-Ritz extraction.
    if (windows_++ % 64 == 0) {
      for (std::size_t j = 0; j < kEta; ++j) {
        for (std::size_t i = 0; i < kOmega; ++i) {
          basis_.at(i, j) = future[j * (kHalf - kOmega) / (kEta - 1) + i] +
                            (j == 0 ? 1e-3 : 0.0);
        }
      }
      orthonormalize(basis_);
    }
    const int sweeps = windows_ % 64 == 1 ? 30 : 3;
    Vec lambdas(kEta, 0.0);
    for (int it = 0; it < sweeps; ++it) {
      Block y(kOmega, kEta);
      for (std::size_t j = 0; j < kEta; ++j) {
        y.set_col(j, gram_apply(future.data(), basis_.col(j)));
      }
      Vec t(kEta * kEta);
      for (std::size_t a = 0; a < kEta; ++a) {
        const Vec ba = basis_.col(a);
        for (std::size_t b = a; b < kEta; ++b) {
          t[a * kEta + b] = t[b * kEta + a] = dot(ba, y.col(b));
        }
      }
      Vec q;
      jacobi(kEta, std::move(t), lambdas, q);
      Block next(kOmega, kEta);
      for (std::size_t j = 0; j < kEta; ++j) {
        Vec c(kOmega, 0.0);
        for (std::size_t a = 0; a < kEta; ++a) {
          const Vec ya = y.col(a);
          for (std::size_t i = 0; i < kOmega; ++i) {
            c[i] += ya[i] * q[a * kEta + j];
          }
        }
        next.set_col(j, c);
      }
      orthonormalize(next);
      basis_ = std::move(next);
    }

    // Past: a Lanczos run per future direction, then the tridiagonal's
    // eigenvectors' first components.
    double weighted = 0.0, total = 0.0;
    for (std::size_t d = 0; d < kEta; ++d) {
      const double lambda = std::abs(lambdas[d]);
      Vec v = basis_.col(d);
      normalize(v);
      Vec prev(kOmega, 0.0), alpha, beta;
      double b = 0.0;
      for (std::size_t k = 0; k < kKrylov; ++k) {
        Vec w = gram_apply(past.data(), v);
        const double a = dot(w, v);
        for (std::size_t i = 0; i < kOmega; ++i) w[i] -= a * v[i] + b * prev[i];
        alpha.push_back(a);
        b = normalize(w);
        if (b <= 1e-12) break;
        beta.push_back(b);
        prev = std::move(v);
        v = std::move(w);
      }
      const std::size_t n = alpha.size();
      Vec tri(n * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        tri[i * n + i] = alpha[i];
        if (i + 1 < n) tri[i * n + i + 1] = tri[(i + 1) * n + i] = beta[i];
      }
      Vec values, vectors;
      jacobi(n, std::move(tri), values, vectors);
      double proj2 = 0.0;
      for (std::size_t j = 0; j < std::min(kEta, n); ++j) {
        proj2 += vectors[j] * vectors[j];
      }
      weighted += lambda * std::clamp(1.0 - proj2, 0.0, 1.0);
      total += lambda;
    }
    return total > 0 ? factor * weighted / total : 0.0;
  }

 private:
  Block basis_{kOmega, kEta};
  std::uint64_t windows_ = 0;
};

// ---- the ingest half: the service's line parsing and the WAL's framing
// and group commit ----

std::uint32_t crc32c(const char* p, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(p[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

struct Lcg {
  std::uint64_t x;
  double uniform() {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(x >> 11) * 0x1p-53;
  }
};

/// The service's line parsing and the WAL's framing and group commit, over
/// one scratch file kept small by rewinding it.
class IngestCopy {
 public:
  explicit IngestCopy(const std::string& path)
      : path_(path), wal_(std::fopen(path.c_str(), "wb")) {
    if (wal_ == nullptr) {
      throw std::runtime_error("reference: cannot open " + path);
    }
  }
  ~IngestCopy() {
    std::fclose(wal_);
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  IngestCopy(const IngestCopy&) = delete;
  IngestCopy& operator=(const IngestCopy&) = delete;

  double lines(int count) {
    std::unordered_map<std::string, std::vector<double>> index;
    double sum = 0.0;
    std::string batch;
    char line[96];
    for (int n = 0; n < count; ++n, ++i_) {
      const int server = static_cast<int>(i_ % 200);
      std::snprintf(line, sizeof line, "svc-%d,svc-%d-%d,kpi-%d,%d,%.3f\n",
                    server / 20, server / 20, server % 20,
                    static_cast<int>(i_ / 200) % 5,
                    static_cast<int>(i_ / 1000 % 1440),
                    100.0 * rng_.uniform());
      // Parse: five comma-separated fields, the key from server and KPI.
      const char* f[5];
      f[0] = line;
      for (int k = 1; k < 5; ++k) f[k] = std::strchr(f[k - 1], ',') + 1;
      const std::string key(f[1], static_cast<std::size_t>(f[3] - f[1] - 1));
      const long minute = std::strtol(f[3], nullptr, 10);
      const double value = std::strtod(f[4], nullptr);
      index[key].push_back(value);
      // Frame: [len][crc32c][payload], two frames per group commit.
      char payload[64];
      const int len = std::snprintf(payload, sizeof payload, "%s|%ld|%.17g",
                                    key.c_str(), minute, value);
      const std::uint32_t crc = crc32c(payload, static_cast<std::size_t>(len));
      batch.append(reinterpret_cast<const char*>(&len), sizeof len);
      batch.append(reinterpret_cast<const char*>(&crc), sizeof crc);
      batch.append(payload, static_cast<std::size_t>(len));
      if (n % 2 == 1) {
        std::fwrite(batch.data(), 1, batch.size(), wal_);
        std::fflush(wal_);
        batch.clear();
      }
      sum += value + static_cast<double>(crc & 0xFF);
    }
    if (std::ftell(wal_) > (1L << 22)) std::rewind(wal_);
    return sum + static_cast<double>(index.size());
  }

 private:
  std::string path_;
  std::FILE* wal_;
  Lcg rng_{42};
  std::uint64_t i_ = 0;
};

/// One chunk of reference work: 130 SST windows and 600 ingest lines, about
/// 3.3 + 1.7 ms of CPU on the guest the bounds were set on.
class Reference {
 public:
  explicit Reference(const std::string& dir) : ingest_(dir + "/reference.wal") {
    Lcg rng{7};
    series_.resize(4000);
    for (std::size_t i = 0; i < series_.size(); ++i) {
      series_[i] = 10.0 + 3.0 * std::sin(static_cast<double>(i) / 30.0) +
                   rng.uniform() + (i % 997 > 900 ? 4.0 : 0.0);
    }
  }
  /// Thread CPU seconds of the chunk's two halves.
  std::pair<double, double> chunk() {
    static volatile double sink = 0.0;
    const double c0 = thread_cpu_s();
    double acc = 0.0;
    for (int w = 0; w < 130; ++w) {
      if (at_ + 2 * kHalf > series_.size()) at_ = 0;
      acc += sst_.score(series_.data() + at_++);
    }
    const double c1 = thread_cpu_s();
    acc += ingest_.lines(600);
    sink = sink + acc;
    return {c1 - c0, thread_cpu_s() - c1};
  }

 private:
  Vec series_;
  std::size_t at_ = 0;
  SstCopy sst_;
  IngestCopy ingest_;
};

/// Mean of the middle 80%: a chunk that took a page fault or shared its
/// core with a burst does not move it much.
double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

}  // namespace

int run_reference_sampler(const std::string& dir) {
  Reference ref(dir);
  (void)ref.chunk();  // warm the caches and the heap; not recorded
  std::vector<double> sst, ingest;
  for (;;) {
    const double w0 = wall_s();
    const auto [s, i] = ref.chunk();
    sst.push_back(s);
    ingest.push_back(i);
    const double left = kSamplePeriodS - (wall_s() - w0);
    pollfd stop{STDIN_FILENO, POLLIN, 0};
    if (::poll(&stop, 1, left > 0 ? static_cast<int>(1e3 * left) : 0) != 0) {
      break;  // stdin closed: the piece of work is over
    }
  }
  std::printf("%.9f %.9f %zu\n", trimmed_mean(sst), trimmed_mean(ingest),
              sst.size());
  return 0;
}

void HostSpeed::begin() {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error("reference sampler: pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  std::string exe = "/proc/self/exe";
  std::string flag = "--reference-sampler";
  std::string where = dir_;
  char* argv[] = {exe.data(), flag.data(), where.data(), nullptr};
  const int rc =
      posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in[0]);
  ::close(out[1]);
  if (rc != 0) {
    pid_ = 0;
    ::close(in[1]);
    ::close(out[0]);
    throw std::runtime_error("reference sampler: spawn failed");
  }
  stop_fd_ = in[1];
  result_fd_ = out[0];
}

std::string HostSpeed::stop() {
  ::close(stop_fd_);
  std::string text;
  char buf[64];
  ssize_t n = 0;
  while ((n = ::read(result_fd_, buf, sizeof buf)) > 0) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(result_fd_);
  int status = 0;
  const bool ok = ::waitpid(pid_, &status, 0) == pid_ && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  pid_ = 0;
  return ok ? text : std::string();
}

HostSpeed::~HostSpeed() {
  if (pid_ != 0) (void)stop();
}

double HostSpeed::scale(double value, Mix mix) {
  const std::string text = stop();
  char* end = nullptr;
  const double sst = std::strtod(text.c_str(), &end);
  const double ingest = std::strtod(end, nullptr);
  if (!(sst > 0) || !(ingest > 0)) {
    throw std::runtime_error("reference sampler failed");
  }
  sst_s_.push_back(sst);
  ingest_s_.push_back(ingest);
  const double slowness = mix == Mix::kSstHalf
                              ? sst / kSstChunkS
                              : (sst + ingest) / (kSstChunkS + kIngestChunkS);
  return value / slowness;
}

void Costs::report(bool trace, const HostSpeed& speed, Result& result) const {
  const double sst_ms = 1e3 * median(speed.sst_s());
  const double ingest_ms = 1e3 * median(speed.ingest_s());
  std::fprintf(stderr,
               "# costs setup_s=%.6g raw_setup_s=%.6g norm_cpu_us_per_op=%.6g "
               "raw_cpu_us_per_op=%.6g ref_sst_ms=%.6g ref_ingest_ms=%.6g\n",
               setup_norm_s, median(setup_s), 1e6 * median(op_norm_s),
               1e6 * median(op_s), sst_ms, ingest_ms);
  if (trace) {
    result.metric("host.setup_s_raw", median(setup_s), "s");
    result.metric("host.cpu_us_per_op_raw", 1e6 * median(op_s), "us");
    result.metric("host.ref_sst_ms", sst_ms, "ms");
    result.metric("host.ref_ingest_ms", ingest_ms, "ms");
  } else {
    result.metric("setup_s", setup_norm_s, "s");
    result.metric("norm_cpu_us_per_op", 1e6 * median(op_norm_s), "us");
  }
}

}  // namespace funnelbench

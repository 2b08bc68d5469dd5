#include "obs/journal.h"

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/group_commit_queue.h"
#include "common/json.h"
#include "common/strings.h"

namespace funnel::obs {

namespace {

// ---------------------------------------------------------------------------
// Serialization. Fixed key order, omitted absent optionals, %.17g doubles:
// the same event always renders to the same bytes, which is what lets the
// determinism test compare canonically sorted journals byte-for-byte.

void key_to(std::string& out, std::string_view key) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;  // keys are fixed identifiers, never need escaping
  out += "\":";
}

void str_field(std::string& out, std::string_view key, std::string_view value) {
  key_to(out, key);
  out += '"';
  json_escape_to(out, value);
  out += '"';
}

// Numeric fields go through std::to_chars — specified to render exactly the
// bytes printf's "C"-locale %d / %.17g would, but several times faster, which
// matters because serialization runs on the writer thread that shares cores
// with the hot path.

void int_field(std::string& out, std::string_view key, std::int64_t value) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  key_to(out, key);
  out.append(buf, r.ptr);
}

void uint_field(std::string& out, std::string_view key, std::uint64_t value) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  key_to(out, key);
  out.append(buf, r.ptr);
}

void double_field(std::string& out, std::string_view key, double value) {
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::general, 17);
  key_to(out, key);
  out.append(buf, r.ptr);
}

void bool_field(std::string& out, std::string_view key, bool value) {
  key_to(out, key);
  out += value ? "true" : "false";
}

template <typename T, typename Fn>
void opt_field(std::string& out, std::string_view key,
               const std::optional<T>& value, Fn&& emit) {
  if (value.has_value()) emit(out, key, *value);
}

// ---------------------------------------------------------------------------
// Parsing. The journal grammar is a strict subset of JSON — one flat object
// per line, string / number / bool values only — so a small hand parser
// keeps obs dependency-free. Unknown keys are skipped (forward compat);
// structural damage (the crash-truncation signature) fails the line.

struct Cursor {
  const char* p;
  const char* end;

  bool eof() const { return p == end; }
  void skip_ws() {
    while (p != end && (*p == ' ' || *p == '\t')) ++p;
  }
  bool eat(char c) {
    skip_ws();
    if (p == end || *p != c) return false;
    ++p;
    return true;
  }
};

bool parse_string(Cursor& c, std::string& out) {
  if (!c.eat('"')) return false;
  out.clear();
  while (!c.eof()) {
    char ch = *c.p++;
    if (ch == '"') return true;
    if (ch == '\\') {
      if (c.eof()) return false;
      char esc = *c.p++;
      switch (esc) {
        case '"':  out += '"';  break;
        case '\\': out += '\\'; break;
        case '/':  out += '/';  break;
        case 'n':  out += '\n'; break;
        case 'r':  out += '\r'; break;
        case 't':  out += '\t'; break;
        case 'u': {
          if (c.end - c.p < 4) return false;
          char hex[5] = {c.p[0], c.p[1], c.p[2], c.p[3], '\0'};
          char* hend = nullptr;
          unsigned long cp = std::strtoul(hex, &hend, 16);
          if (hend != hex + 4) return false;
          c.p += 4;
          // Journal writers only emit \u00XX control escapes; anything in
          // the BMP decodes to UTF-8 here for robustness.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return false;
      }
    } else {
      out += ch;
    }
  }
  return false;  // ran off the end inside a string: truncated line
}

// Raw token for a number / true / false value.
bool parse_scalar(Cursor& c, std::string& out) {
  c.skip_ws();
  out.clear();
  while (!c.eof() && *c.p != ',' && *c.p != '}' && *c.p != ' ' &&
         *c.p != '\t') {
    out += *c.p++;
  }
  return !out.empty();
}

bool to_int(const std::string& tok, std::int64_t& out) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  out = v;
  return true;
}

bool to_uint(const std::string& tok, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty() ||
      tok[0] == '-') {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

std::string to_jsonl(const JournalEvent& e) {
  std::string out;
  out.reserve(512);
  out += '{';
  int_field(out, "v", e.v);
  str_field(out, "source", e.source);
  uint_field(out, "change_id", e.change_id);
  int_field(out, "change_time", e.change_time);
  str_field(out, "service", e.service);
  str_field(out, "change_type", e.change_type);
  str_field(out, "launch_mode", e.launch_mode);
  str_field(out, "metric", e.metric);
  str_field(out, "entity_kind", e.entity_kind);
  str_field(out, "kpi", e.kpi);
  str_field(out, "cause", e.cause);
  if (!e.inconclusive_reason.empty()) {
    str_field(out, "inconclusive_reason", e.inconclusive_reason);
  }
  bool_field(out, "detected", e.detected);
  opt_field(out, "alarm_minute", e.alarm_minute,
            [](std::string& o, std::string_view k, MinuteTime v) {
              int_field(o, k, v);
            });
  opt_field(out, "sst_peak", e.sst_peak,
            [](std::string& o, std::string_view k, double v) {
              double_field(o, k, v);
            });
  opt_field(out, "sst_damp_factor", e.sst_damp_factor,
            [](std::string& o, std::string_view k, double v) {
              double_field(o, k, v);
            });
  opt_field(out, "did_alpha", e.did_alpha,
            [](std::string& o, std::string_view k, double v) {
              double_field(o, k, v);
            });
  opt_field(out, "did_alpha_scaled", e.did_alpha_scaled,
            [](std::string& o, std::string_view k, double v) {
              double_field(o, k, v);
            });
  opt_field(out, "did_t_stat", e.did_t_stat,
            [](std::string& o, std::string_view k, double v) {
              double_field(o, k, v);
            });
  opt_field(out, "did_n_treated", e.did_n_treated,
            [](std::string& o, std::string_view k, std::int64_t v) {
              int_field(o, k, v);
            });
  opt_field(out, "did_n_control", e.did_n_control,
            [](std::string& o, std::string_view k, std::int64_t v) {
              int_field(o, k, v);
            });
  if (!e.control_kind.empty()) str_field(out, "control_kind", e.control_kind);
  bool_field(out, "fallback_control", e.fallback_control);
  opt_field(out, "coverage", e.coverage,
            [](std::string& o, std::string_view k, double v) {
              double_field(o, k, v);
            });
  opt_field(out, "window_minutes", e.window_minutes,
            [](std::string& o, std::string_view k, std::int64_t v) {
              int_field(o, k, v);
            });
  opt_field(out, "clean_samples", e.clean_samples,
            [](std::string& o, std::string_view k, std::int64_t v) {
              int_field(o, k, v);
            });
  opt_field(out, "longest_gap_run", e.longest_gap_run,
            [](std::string& o, std::string_view k, std::int64_t v) {
              int_field(o, k, v);
            });
  opt_field(out, "longest_flat_run", e.longest_flat_run,
            [](std::string& o, std::string_view k, std::int64_t v) {
              int_field(o, k, v);
            });
  opt_field(out, "determined_at", e.determined_at,
            [](std::string& o, std::string_view k, MinuteTime v) {
              int_field(o, k, v);
            });
  opt_field(out, "time_to_verdict", e.time_to_verdict,
            [](std::string& o, std::string_view k, MinuteTime v) {
              int_field(o, k, v);
            });
  out += '}';
  return out;
}

bool parse_jsonl(std::string_view line, JournalEvent& event) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) return false;

  JournalEvent e;
  bool saw_version = false;
  bool first = true;
  for (;;) {
    c.skip_ws();
    if (c.eat('}')) break;
    if (!first && !c.eat(',')) return false;
    first = false;

    std::string key;
    if (!parse_string(c, key)) return false;
    if (!c.eat(':')) return false;

    c.skip_ws();
    std::string sval, tok;
    bool is_string = !c.eof() && *c.p == '"';
    if (is_string) {
      if (!parse_string(c, sval)) return false;
    } else {
      if (!parse_scalar(c, tok)) return false;
    }

    auto want_int = [&](std::optional<std::int64_t>& slot) {
      std::int64_t v;
      if (!is_string && to_int(tok, v)) slot = v;
    };
    auto want_double = [&](std::optional<double>& slot) {
      double v;
      if (!is_string && parse_decimal(tok, v)) slot = v;
    };

    if (key == "v") {
      std::int64_t v;
      if (is_string || !to_int(tok, v)) return false;
      e.v = static_cast<int>(v);
      saw_version = true;
    } else if (key == "source") {
      e.source = sval;
    } else if (key == "change_id") {
      std::uint64_t v;
      if (!is_string && to_uint(tok, v)) e.change_id = v;
    } else if (key == "change_time") {
      std::int64_t v;
      if (!is_string && to_int(tok, v)) e.change_time = v;
    } else if (key == "service") {
      e.service = sval;
    } else if (key == "change_type") {
      e.change_type = sval;
    } else if (key == "launch_mode") {
      e.launch_mode = sval;
    } else if (key == "metric") {
      e.metric = sval;
    } else if (key == "entity_kind") {
      e.entity_kind = sval;
    } else if (key == "kpi") {
      e.kpi = sval;
    } else if (key == "cause") {
      e.cause = sval;
    } else if (key == "inconclusive_reason") {
      e.inconclusive_reason = sval;
    } else if (key == "detected") {
      e.detected = (tok == "true");
    } else if (key == "alarm_minute") {
      want_int(e.alarm_minute);
    } else if (key == "sst_peak") {
      want_double(e.sst_peak);
    } else if (key == "sst_damp_factor") {
      want_double(e.sst_damp_factor);
    } else if (key == "did_alpha") {
      want_double(e.did_alpha);
    } else if (key == "did_alpha_scaled") {
      want_double(e.did_alpha_scaled);
    } else if (key == "did_t_stat") {
      want_double(e.did_t_stat);
    } else if (key == "did_n_treated") {
      want_int(e.did_n_treated);
    } else if (key == "did_n_control") {
      want_int(e.did_n_control);
    } else if (key == "control_kind") {
      e.control_kind = sval;
    } else if (key == "fallback_control") {
      e.fallback_control = (tok == "true");
    } else if (key == "coverage") {
      want_double(e.coverage);
    } else if (key == "window_minutes") {
      want_int(e.window_minutes);
    } else if (key == "clean_samples") {
      want_int(e.clean_samples);
    } else if (key == "longest_gap_run") {
      want_int(e.longest_gap_run);
    } else if (key == "longest_flat_run") {
      want_int(e.longest_flat_run);
    } else if (key == "determined_at") {
      want_int(e.determined_at);
    } else if (key == "time_to_verdict") {
      want_int(e.time_to_verdict);
    }
    // Unknown key: value already consumed, skip it.
  }
  c.skip_ws();
  if (!c.eof()) return false;
  if (!saw_version || e.v != kJournalSchemaVersion) return false;

  event = std::move(e);
  return true;
}

std::vector<JournalEvent> read_journal(const std::string& path,
                                       std::size_t* bad_lines, bool* ok) {
  if (bad_lines != nullptr) *bad_lines = 0;
  std::vector<JournalEvent> events;
  std::ifstream in(path);
  if (ok != nullptr) *ok = in.good();
  if (!in.good()) return events;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JournalEvent e;
    if (parse_jsonl(line, e)) {
      events.push_back(std::move(e));
    } else if (bad_lines != nullptr) {
      ++*bad_lines;
    }
  }
  return events;
}

std::uint64_t repair_journal(const std::string& path,
                             std::uint64_t keep_events) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return 0;

  std::uint64_t off = 0;       // bytes consumed so far
  std::uint64_t keep_off = 0;  // end of the last event we keep
  std::uint64_t kept = 0;
  std::string line;
  while (kept < keep_events && std::getline(in, line)) {
    off += line.size() + (in.eof() ? 0 : 1);  // '\n' unless torn final line
    if (line.empty()) continue;
    JournalEvent e;
    if (!parse_jsonl(line, e)) continue;  // torn/corrupt line: drop it
    ++kept;
    keep_off = off;
  }
  in.close();

  std::error_code ec;
  std::filesystem::resize_file(path, keep_off, ec);
  return ec ? 0 : kept;
}

#ifdef FUNNEL_OBS_OFF

Journal::Journal(std::string path, JournalOptions options)
    : path_(std::move(path)) {
  // Create (or truncate) the file so --journal keeps its open-check and
  // empty-journal semantics; nothing will ever be written to it.
  std::FILE* f = std::fopen(path_.c_str(), options.truncate ? "wb" : "ab");
  ok_ = (f != nullptr);
  if (f != nullptr) std::fclose(f);
}

#else  // FUNNEL_OBS_OFF

namespace {

struct CloseFile {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

}  // namespace

// Writer-side state: the queue's consumer serializes and commits each
// drained batch.
struct Journal::Impl {
  Impl(std::FILE* f, std::size_t capacity)
      : file(f),
        queue(capacity, common::Backpressure::kBlock,
              [this](std::vector<JournalEvent>& batch) { commit(batch); }) {}

  void commit(const std::vector<JournalEvent>& batch) {
    // Group commit: under steady load the writer outruns the producers and
    // a batch is one event (a crash loses at most the line in flight);
    // under bursts the batch amortizes the fwrite + fflush so the queue
    // never backs up.
    buf.clear();
    for (const JournalEvent& event : batch) {
      buf += to_jsonl(event);
      buf += '\n';
    }
    std::fwrite(buf.data(), 1, buf.size(), file.get());
    // One fflush per batch: the crash-tolerance story is "lose at most
    // the batch being written", not "lose a stdio buffer full".
    std::fflush(file.get());

    if (observer) {
      for (const JournalEvent& event : batch) observer(event);
    }

    if (const Registry* reg = stats.load(std::memory_order_relaxed)) {
      reg->add("funnel.journal.events", batch.size());
      reg->add("funnel.journal.bytes", buf.size());
      reg->set("funnel.journal.queue_depth",
               static_cast<double>(queue.depth()));
    }
  }

  std::unique_ptr<std::FILE, CloseFile> file;
  std::string buf;  ///< writer thread only
  std::function<void(const JournalEvent&)> observer;
  std::atomic<const Registry*> stats{nullptr};
  /// Last member: destroyed first, so it drains into an open file.
  common::GroupCommitQueue<JournalEvent> queue;
};

Journal::Journal(std::string path, JournalOptions options)
    : path_(std::move(path)) {
  std::FILE* file = std::fopen(path_.c_str(), options.truncate ? "wb" : "ab");
  ok_ = (file != nullptr);
  if (ok_) impl_ = std::make_unique<Impl>(file, options.queue_capacity);
}

Journal::~Journal() = default;

void Journal::append(JournalEvent event) const {
  if (ok_) impl_->queue.push(std::move(event));
}

void Journal::flush() const {
  if (ok_) impl_->queue.flush();
}

std::uint64_t Journal::appended() const {
  return ok_ ? impl_->queue.pushed() : 0;
}

std::uint64_t Journal::written() const {
  return ok_ ? impl_->queue.consumed() : 0;
}

void Journal::set_stats(const Registry* stats) const {
  if (!ok_) return;
  impl_->stats.store(stats, std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->set("funnel.journal.queue_capacity",
               static_cast<double>(impl_->queue.capacity()));
    stats->declare_gauge("funnel.journal.queue_depth");
    stats->declare_counter("funnel.journal.events");
    stats->declare_counter("funnel.journal.bytes");
  }
}

void Journal::set_observer(std::function<void(const JournalEvent&)> observer) {
  if (!ok_) return;
  // Quiesce first so the writer thread never races the assignment; callers
  // are told to set the observer before appending or after a flush(), this
  // flush makes the former safe even mid-stream.
  flush();
  impl_->observer = std::move(observer);
}

#endif  // FUNNEL_OBS_OFF

}  // namespace funnel::obs

/// @file common.hpp — shared machinery of the end-to-end benchmark
/// program: options, host-time spans, the correctness ledger, the metric
/// sink, reference digests and readers for the obs metrics document.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< committed seed-1 digests
  std::string out_dir;         ///< detail + span files (may be empty)
  bool print_digests = false;  ///< emit digests instead of checking them
};

/// Host-time spans recorded by perfbench around each call it makes into
/// a layer. Spans stay in memory and are written out when the run ends.
/// A disabled recorder records nothing and costs one branch per span.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the recorder was created
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
    std::uint64_t call = 0;     ///< shared by the spans of one workload call
  };

  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Open a span under the innermost open span; returns its handle
  /// (-1 when disabled).
  int begin(std::string name, std::uint64_t call);
  /// Close span `handle` (no-op for -1).
  void end(int handle);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part covered by direct children.
  [[nodiscard]] std::int64_t self_ns(std::size_t index) const;
  /// JSON array of every span with its self time.
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begin on construction, end on destruction or stop(). Times
/// the interval whether or not the recorder is enabled.
class SpanGuard {
 public:
  SpanGuard(Spans& spans, std::string name, std::uint64_t call)
      : spans_(&spans), handle_(spans.begin(std::move(name), call)) {}
  ~SpanGuard() { stop(); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  /// End the span now (later calls are no-ops); returns its duration in
  /// seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_since(start_);
      spans_->end(handle_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  Spans* spans_;
  int handle_;
  Clock::time_point start_ = Clock::now();
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// Committed reference digests: one `<workload> <call> <hex>` per line.
class References {
 public:
  /// Empty when the path is empty; a missing or malformed file is an
  /// error the caller reports (nullopt).
  [[nodiscard]] static std::optional<References> load(const std::string& path);
  [[nodiscard]] std::optional<std::uint64_t> find(std::string_view workload,
                                                  std::string_view call) const;

 private:
  std::map<std::string, std::uint64_t> digests_;
};

/// Everything one run reports: the correctness ledger (calls attempted,
/// calls failed, what failed), end-to-end or per-layer metrics, and a
/// free-form detail object (host record, ledger, mismatches).
class Output {
 public:
  Output(const Options& options, const References& references)
      : options_(options), references_(references) {}

  [[nodiscard]] const Options& options() const { return options_; }

  /// Record one call of `workload`: its digest is checked against the
  /// first digest this run saw for the same call (any seed) and, when
  /// `pinned`, against the committed reference (seed 1 only).
  /// `invariants_ok` carries the call's report invariants. Returns true
  /// when the call passed.
  bool call(std::string_view workload, std::string_view call_name,
            std::uint64_t digest, bool invariants_ok,
            std::string_view invariant_note = {}, bool pinned = true);
  /// A check that is not one call's digest (e.g. the suite's scenario
  /// count); counts as an attempted call.
  bool check(std::string_view what, bool ok);

  void metric(const std::string& name, double value, const char* unit);
  /// Detail field with a raw JSON value.
  void detail(const std::string& key, std::string json_value);
  void detail_number(const std::string& key, double value);
  void detail_string(const std::string& key, std::string_view value);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::string detail_json() const;
  [[nodiscard]] std::string result_json() const;
  [[nodiscard]] std::string digests_text() const;

 private:
  static constexpr std::size_t kMaxFailuresListed = 32;

  const Options& options_;
  const References& references_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  struct Seen {
    std::uint64_t digest = 0;
    bool pinned = false;
  };
  std::map<std::string, Seen> first_digest_;  ///< "<workload> <call>"
  std::vector<std::pair<std::string, std::string>> metrics_;  ///< name, json
  std::vector<std::pair<std::string, std::string>> details_;
};

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// 64-bit FNV-1a of a byte string (scenario render digests).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// JSON number text with all significant digits.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(std::string_view s);

/// Process high-water RSS in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Counters and worker rows of a one-record obs metrics document
/// (obs::Runtime::metrics_json). The document's layout is fixed by
/// obs.cpp, so a scan for the known keys suffices.
struct ObsRecord {
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t worker_busy_ns = 0;
  std::uint64_t worker_stall_ns = 0;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};
[[nodiscard]] ObsRecord parse_obs_record(std::string_view metrics_json);

/// Switch the obs counters on (no model-time trace, no samplers) and
/// open one record; `close_obs_record` closes it and returns its
/// counters. Used only by traced runs.
void open_obs_record(const std::string& name);
[[nodiscard]] ObsRecord close_obs_record();

/// Host record: nproc, SIMD tier, compiler, build type, workers used.
[[nodiscard]] std::string host_json(unsigned workers_used);
[[nodiscard]] unsigned host_cores();

}  // namespace perfbench

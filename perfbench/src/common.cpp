#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/obs.hpp"
#include "stats/fast_math.hpp"

namespace perfbench {

// ------------------------------------------------------------------ spans

int Spans::begin(std::string name, std::uint64_t call) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.call = call;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  const int handle = int(spans_.size() - 1);
  open_.push_back(handle);
  return handle;
}

void Spans::end(int handle) {
  if (handle < 0) return;
  Span& span = spans_[std::size_t(handle)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - origin_)
                    .count();
  // Guards close in LIFO order; tolerate an out-of-order close anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), handle);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::int64_t Spans::self_ns(std::size_t index) const {
  const Span& span = spans_[index];
  std::int64_t children = 0;
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].start_ns >= span.end_ns) break;
    if (spans_[i].parent == std::int32_t(index))
      children += spans_[i].end_ns - spans_[i].start_ns;
  }
  return span.end_ns - span.start_ns - children;
}

std::string Spans::to_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) out += ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":" + json_string(s.name) +
           ",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"self_ns\":" + std::to_string(self_ns(i)) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"call\":" + std::to_string(s.call) + "}";
  }
  out += "]\n";
  return out;
}

// ------------------------------------------------------------- references

std::optional<References> References::load(const std::string& path) {
  References refs;
  if (path.empty()) return refs;
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::string call;
    std::string hex;
    if (!(fields >> workload >> call >> hex)) return std::nullopt;
    char* end = nullptr;
    const std::uint64_t digest = std::strtoull(hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') return std::nullopt;
    refs.digests_[workload + ' ' + call] = digest;
  }
  return refs;
}

std::optional<std::uint64_t> References::find(std::string_view workload,
                                              std::string_view call) const {
  std::string key{workload};
  key += ' ';
  key += call;
  const auto it = digests_.find(key);
  if (it == digests_.end()) return std::nullopt;
  return it->second;
}

// ----------------------------------------------------------------- output

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

bool Output::call(std::string_view workload, std::string_view call_name,
                  std::uint64_t digest, bool invariants_ok,
                  std::string_view invariant_note, bool pinned) {
  std::string name{workload};
  name += ' ';
  name += call_name;
  std::string why;
  const auto miss = [&why](const std::string& what) {
    why += (why.empty() ? "" : "; ") + what;
  };
  if (!invariants_ok)
    miss("invariant broken: " + std::string(invariant_note));
  const auto [it, inserted] = first_digest_.emplace(name, Seen{digest, pinned});
  if (!inserted && it->second.digest != digest)
    miss("digest changed between repeats of the same call");
  if (pinned && options_.seed == 1 && !options_.print_digests) {
    const auto ref = references_.find(workload, call_name);
    if (!ref)
      miss("no committed reference");
    else if (*ref != digest)
      miss("digest " + hex64(digest) + " != reference " + hex64(*ref));
  }
  return check(name + ": " + why, why.empty());
}

bool Output::check(std::string_view what, bool ok) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < kMaxFailuresListed)
      failures_.push_back(std::string(what));
  }
  return ok;
}

void Output::metric(const std::string& name, double value, const char* unit) {
  std::string json = "{\"value\":" + json_number(value) +
                     ",\"unit\":" + json_string(unit) + "}";
  for (auto& [n, j] : metrics_) {
    if (n == name) {
      j = std::move(json);
      return;
    }
  }
  metrics_.emplace_back(name, std::move(json));
}

void Output::detail(const std::string& key, std::string json_value) {
  details_.emplace_back(key, std::move(json_value));
}

void Output::detail_number(const std::string& key, double value) {
  detail(key, json_number(value));
}

void Output::detail_string(const std::string& key, std::string_view value) {
  detail(key, json_string(value));
}

std::string Output::detail_json() const {
  std::string out = "{\"workload\":" + json_string(options_.workload) +
                    ",\"seed\":" + std::to_string(options_.seed) +
                    ",\"trace\":" + (options_.trace ? "1" : "0") +
                    ",\"error_rate\":" +
                    json_number(attempted_ == 0
                                    ? 0.0
                                    : double(failed_) / double(attempted_)) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i != 0) out += ',';
    out += json_string(failures_[i]);
  }
  out += ']';
  for (const auto& [key, value] : details_)
    out += ',' + json_string(key) + ':' + value;
  out += '}';
  return out;
}

std::string Output::result_json() const {
  std::string out = "{\"correct\":";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) out += ',';
    out += json_string(metrics_[i].first) + ':' + metrics_[i].second;
  }
  out += "}}";
  return out;
}

std::string Output::digests_text() const {
  std::string out;
  for (const auto& [call, seen] : first_digest_)
    if (seen.pinned) out += call + ' ' + hex64(seen.digest) + '\n';
  return out;
}

// ---------------------------------------------------------------- helpers

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + std::ptrdiff_t(mid),
                   values.end());
  const double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(values.begin(), values.begin() + std::ptrdiff_t(mid));
  return 0.5 * (lo + hi);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= std::uint8_t(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (std::uint8_t(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(std::uint8_t(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so perfbench started
  // from a larger parent (python, a shell) would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------------------- obs

namespace {

/// Parse `"key":<u64>` pairs of the flat object starting at `pos` (just
/// past its '{') up to the matching '}'.
void parse_u64_object(std::string_view doc, std::size_t pos,
                      std::map<std::string, std::uint64_t>& out) {
  while (pos < doc.size() && doc[pos] != '}') {
    if (doc[pos] != '"') {
      ++pos;
      continue;
    }
    const std::size_t key_end = doc.find('"', pos + 1);
    if (key_end == std::string_view::npos) return;
    std::string key{doc.substr(pos + 1, key_end - pos - 1)};
    pos = key_end + 2;  // skip `":`
    std::uint64_t value = 0;
    while (pos < doc.size() && doc[pos] >= '0' && doc[pos] <= '9')
      value = value * 10 + std::uint64_t(doc[pos++] - '0');
    out[std::move(key)] = value;
  }
}

std::uint64_t field_u64(std::string_view doc, std::size_t from,
                        std::string_view key) {
  const std::size_t at = doc.find(key, from);
  if (at == std::string_view::npos) return 0;
  std::size_t pos = at + key.size();
  std::uint64_t value = 0;
  while (pos < doc.size() && doc[pos] >= '0' && doc[pos] <= '9')
    value = value * 10 + std::uint64_t(doc[pos++] - '0');
  return value;
}

}  // namespace

ObsRecord parse_obs_record(std::string_view doc) {
  // open_obs_record resets the runtime, so the document holds exactly
  // one scenario record: its first "counters" and "workers" keys.
  ObsRecord rec;
  const std::size_t counters = doc.find("\"counters\":{");
  if (counters != std::string_view::npos)
    parse_u64_object(doc, counters + 12, rec.counters);
  const std::size_t workers = doc.find("\"workers\":[");
  if (workers == std::string_view::npos) return rec;
  const std::size_t workers_end = doc.find(']', workers);
  for (std::size_t row = doc.find("{\"pool\":", workers);
       row != std::string_view::npos && row < workers_end;
       row = doc.find("{\"pool\":", row + 1)) {
    rec.worker_busy_ns += field_u64(doc, row, "\"busy_ns\":");
    rec.worker_stall_ns += field_u64(doc, row, "\"stall_ns\":");
  }
  return rec;
}

void open_obs_record(const std::string& name) {
  auto& rt = sixg::obs::Runtime::instance();
  rt.configure(sixg::obs::Config{.metrics = true, .trace = false,
                                 .sample_every = {}});
  rt.begin_scenario(name);
}

ObsRecord close_obs_record() {
  auto& rt = sixg::obs::Runtime::instance();
  rt.end_scenario();
  rt.disable();
  return parse_obs_record(rt.metrics_json(true));
}

// ------------------------------------------------------------------- host

unsigned host_cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? unsigned(n) : 1U;
}

std::string host_json(unsigned workers_used) {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  return "{\"nproc\":" + std::to_string(host_cores()) + ",\"simd_tier\":" +
         json_string(sixg::stats::simd_tier_name(
             sixg::stats::best_simd_tier())) +
         ",\"compiler\":" + json_string(compiler) +
         ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
         ",\"workers\":" + std::to_string(workers_used) + "}";
}

}  // namespace perfbench

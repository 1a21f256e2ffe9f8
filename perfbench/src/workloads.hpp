/// @file workloads.hpp — the four benchmark workloads.
///
/// Each workload has an end-to-end entry (tracing off: set-up, timed
/// passes, host-time metrics) and a per-layer entry (traced: obs
/// counters plus perfbench's own spans around each layer call). A
/// traced run measures its own workload's layers in full and every other
/// workload's layers with one short census pass, so each traced run
/// reports every per-layer metric from a measurement of its own.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Per-run state shared by the workload entries.
struct Env {
  const Options& options;
  Output& out;
  Spans& spans;
  std::uint64_t next_call = 1;
  /// obs counter vs Report field disagreements seen in traced calls:
  /// "<workload>/<call>/<counter>" -> JSON object, each reported once.
  std::map<std::string, std::string> mismatches;
  /// Fastest host seconds seen per call ("<workload> <call>").
  std::map<std::string, double> fastest_call_s;

  void call_time(const std::string& key, double seconds) {
    const auto [it, inserted] = fastest_call_s.emplace(key, seconds);
    if (!inserted && seconds < it->second) it->second = seconds;
  }
};

enum class Depth : std::uint8_t {
  kFull,    ///< the run's own workload: repeated, median-reported passes
  kCensus,  ///< another workload's layers: one short pass
};

enum class FleetKind : std::uint8_t { kWindow, kHardened, kSharded };

/// Set-ups per run: setup_s and the set-up layer metrics are medians.
inline constexpr int kSetupRepeats = 51;

inline constexpr const char* kFleetWindow = "fleet-window";
inline constexpr const char* kFleetHardened = "fleet-hardened";
inline constexpr const char* kFleetSharded = "fleet-sharded";
inline constexpr const char* kPaperSuite = "paper-suite";

[[nodiscard]] const char* workload_name(FleetKind kind);

/// Worker threads of fleet-sharded's timed calls: min(2, nproc). With 4
/// barrier-synchronised workers on a shared 4-CPU host a whole run's
/// pass times flip between ~0.4 s and ~1.5 s, too unsteady for an
/// end-to-end bound; 2 workers leave headroom and hold steady.
[[nodiscard]] unsigned sharded_workers();
/// Worker count of the per-layer scaling metrics: min(4, nproc).
[[nodiscard]] unsigned scaling_workers();

void fleet_end_to_end(Env& env, FleetKind kind);
void fleet_layers(Env& env, FleetKind kind, Depth depth);
/// core/topo set-up layer: repeated world builds with spans.
void setup_layers(Env& env);

void paper_end_to_end(Env& env);
void paper_layers(Env& env, Depth depth);

/// Run `pass` until `seconds` have elapsed and at least `min_passes`
/// ran; returns each pass's host seconds.
template <class Pass>
std::vector<double> timed_passes(double seconds, std::size_t min_passes,
                                 Pass&& pass) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < min_passes || seconds_since(start) < seconds) {
    const auto t0 = Clock::now();
    pass();
    times.push_back(seconds_since(t0));
  }
  return times;
}

/// End-to-end metrics shared by every workload; returns `run_s`, the sum
/// over the pass's calls of each call's fastest repeat.
double emit_end_to_end(Env& env, const std::vector<double>& setup_s,
                       const std::vector<double>& pass_s,
                       double work_per_pass);

}  // namespace perfbench

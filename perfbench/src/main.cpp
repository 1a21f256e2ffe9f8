/// @file main.cpp — end-to-end benchmark program for the simulator.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--reference <digests file>] [--out-dir <dir>]
///             [--print-digests]
///
/// Workloads: fleet-window, fleet-hardened, fleet-sharded, paper-suite
/// (see perfbench/README.md for why each exists and which layers it
/// stresses). With --trace 0 it prints the end-to-end metrics, with
/// --trace 1 the per-layer ones. The last stdout line is the result
/// object {"correct", "attempted", "failed", "metrics"}; the line before
/// it is the run's detail object (host record, failures, per-pass times,
/// counter cross-check). Exit status 1 when any call missed its reference
/// digest or broke a report invariant, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

double emit_end_to_end(Env& env, const std::vector<double>& setup_s,
                       const std::vector<double>& pass_s,
                       double work_per_pass) {
  // Every pass repeats the same deterministic calls, so the spread
  // between repeats of one call is host interference, which only adds
  // time: a call's fastest repeat is its cost.
  double run_s = 0.0;
  std::string fastest = "{";
  for (const auto& [call, seconds] : env.fastest_call_s) {
    run_s += seconds;
    if (fastest.size() > 1) fastest += ',';
    fastest += json_string(call) + ':' + json_number(seconds);
  }
  env.out.detail("fastest_call_s", fastest + "}");
  env.out.metric("setup_s", median(setup_s), "s");
  env.out.metric("run_s", run_s, "s");
  env.out.metric("work_per_s", work_per_pass / run_s, "1/s");
  env.out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  std::string passes = "[";
  for (std::size_t i = 0; i < pass_s.size(); ++i) {
    if (i != 0) passes += ',';
    passes += json_number(pass_s[i]);
  }
  env.out.detail("pass_s", passes + "]");
  env.out.detail_number("median_pass_s", median(pass_s));
  env.out.detail_number("setup_first_s", setup_s.front());
  env.out.detail_number("work_per_pass", work_per_pass);
  return run_s;
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet-window|fleet-hardened|fleet-sharded|paper-suite> "
               "--seed <n> --seconds <s> --trace <0|1> [--reference <file>] "
               "[--out-dir <dir>] [--print-digests]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 0);
  return end != text && *end == '\0';
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  return bool(f);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-digests") {
      opt.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, n)) return usage("--seed takes an integer");
      opt.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 600)
        return usage("--seconds takes an integer in 1..600");
      opt.seconds = double(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!parse_u64(value, n) || n > 1) return usage("--trace takes 0 or 1");
      opt.trace = n == 1;
      have_trace = true;
    } else if (arg == "--reference") {
      opt.reference_path = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  const FleetKind kinds[] = {FleetKind::kWindow, FleetKind::kHardened,
                             FleetKind::kSharded};
  const FleetKind* own_fleet = nullptr;
  for (const FleetKind& k : kinds)
    if (opt.workload == workload_name(k)) own_fleet = &k;
  const bool paper = opt.workload == kPaperSuite;
  if (own_fleet == nullptr && !paper) return usage("unknown workload");

  const auto refs = References::load(opt.reference_path);
  if (!refs) {
    std::fprintf(stderr, "perfbench: cannot read reference digests '%s'\n",
                 opt.reference_path.c_str());
    return 2;
  }

  Output out(opt, *refs);
  Spans spans(opt.trace);
  Env env{opt, out, spans, 1, {}, {}};
  const bool sharded =
      own_fleet != nullptr && *own_fleet == FleetKind::kSharded;
  out.detail("host", host_json(sharded ? sharded_workers() : 1));
  if (sharded && opt.trace)
    out.detail_number("scaling_workers", scaling_workers());
  if (sharded && host_cores() < 4) {
    out.detail_string("host_flag",
                      "nproc < 4: the scaling metrics ran with fewer than "
                      "4 workers and do not count as a scaling result");
  }

  if (!opt.trace) {
    if (paper)
      paper_end_to_end(env);
    else
      fleet_end_to_end(env, *own_fleet);
  } else {
    // Own workload in full, every other workload's layers by census.
    setup_layers(env);
    if (paper) paper_layers(env, Depth::kFull);
    for (const FleetKind k : kinds) {
      fleet_layers(env, k,
                   own_fleet != nullptr && *own_fleet == k ? Depth::kFull
                                                           : Depth::kCensus);
    }
    if (!paper) paper_layers(env, Depth::kCensus);
    out.metric("obs.counter_mismatches", double(env.mismatches.size()),
               "count");
    std::string list = "[";
    for (const auto& [key, json] : env.mismatches) {
      if (list.size() > 1) list += ',';
      list += json;
    }
    out.detail("counter_mismatches", list + "]");
  }

  if (opt.print_digests) {
    std::fputs(out.digests_text().c_str(), stdout);
    return out.failed() == 0 ? 0 : 1;
  }

  const std::string detail = out.detail_json();
  if (!opt.out_dir.empty()) {
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    bool ok = write_file(stem + ".json", detail + "\n");
    if (opt.trace) ok = write_file(stem + ".spans.json", spans.to_json()) && ok;
    if (!ok)
      std::fprintf(stderr, "perfbench: cannot write under '%s'\n",
                   opt.out_dir.c_str());
  }
  std::printf("%s\n%s\n", detail.c_str(), out.result_json().c_str());
  return out.failed() == 0 ? 0 : 1;
}

/// @file fleet_workloads.cpp — the three fleet workloads (fleet-window,
/// fleet-hardened, fleet-sharded) over the Klagenfurt city world.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "core/scenario.hpp"
#include "edgeai/fleet.hpp"
#include "edgeai/net_leg.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/simulator.hpp"
#include "radio/link_model.hpp"
#include "topo/europe.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sixg::DataRate;
using sixg::Duration;
using sixg::edgeai::FleetStudy;
using sixg::edgeai::NetLeg;
using sixg::edgeai::ShardedFleetStudy;

// One pass is a fixed amount of simulated work, sized so a pass takes a
// few hundred host milliseconds: a 10 s run then reports the median of
// tens of passes.
constexpr std::uint32_t kWindowRequestsPerPoint = 100000;  // x5 points
constexpr std::uint32_t kHardenedRequests = 200000;
constexpr std::uint32_t kShardedPods = 8;
constexpr std::uint32_t kShardedRequestsPerPod = 100000;
constexpr double kCityLoad = 12000.0;  // det-base req/s (per pod if sharded)
/// One edge GPU sustains ~4.7k det-base req/s at batch 16.
constexpr double kEdgeGpuCapacity = 4700.0;
/// Outstanding no-op event chains of the bare-kernel probe: about the
/// pending-event depth of a 12k req/s fleet with ~10 ms in flight.
constexpr std::uint32_t kBareChains = 128;

/// The city every fleet workload serves: the Klagenfurt study (for the
/// C2 cell's radio conditions), the peered Europe topology, 6G access
/// and the compiled paths. Heap-held: NetLegs borrow `access`.
struct CityWorld {
  std::optional<sixg::core::KlagenfurtStudy> study;
  sixg::radio::CellConditions cell{};
  std::optional<sixg::topo::EuropeTopology> peered;
  sixg::radio::RadioLinkModel access{sixg::radio::AccessProfile::sixg()};
  sixg::topo::CompiledPath edge_path;
  sixg::topo::CompiledPath cloud_path;
  sixg::topo::CompiledPath interpod;
};

struct SetupTimes {
  double study_s = 0.0;
  double europe_s = 0.0;
  double paths_s = 0.0;
};

std::unique_ptr<CityWorld> build_world(Spans& spans, SetupTimes* times) {
  auto w = std::make_unique<CityWorld>();
  SetupTimes t;
  {
    SpanGuard span(spans, "core.study_build", 0);
    w->study.emplace();
    w->cell = w->study->rem().at(*w->study->grid().parse_label("C2"));
    t.study_s = span.stop();
  }
  {
    SpanGuard span(spans, "topo.build_europe", 0);
    sixg::topo::EuropeOptions fixed;
    fixed.local_breakout = true;
    fixed.local_peering = true;
    w->peered.emplace(sixg::topo::build_europe(fixed));
    t.europe_s = span.stop();
  }
  {
    SpanGuard span(spans, "topo.path_compile", 0);
    const auto& world = *w->peered;
    w->edge_path =
        world.net.compile(world.net.find_path(world.mobile_ue,
                                              world.university_probe));
    w->cloud_path = world.net.compile(
        world.net.find_path(world.mobile_ue, world.cloud_vienna));
    w->interpod = world.net.compile(
        world.net.find_path(world.university_probe, world.cloud_vienna));
    t.paths_s = span.stop();
  }
  if (times != nullptr) *times = t;
  return w;
}

/// How a fleet-window variant's servers reach the user (the ledger's
/// local-vs-networked comparison).
enum class Legs : std::uint8_t {
  kNetworked,  ///< 6G radio + peered path, vectorized block draws
  kLocal,      ///< no network legs at all
  kConstant,   ///< opaque constant-delay legs: same events, no RNG
};

struct LegSet {
  NetLeg up;
  NetLeg down;
};

LegSet legs_for(const CityWorld& w, const sixg::topo::CompiledPath& path,
                Legs kind, Duration constant) {
  switch (kind) {
    case Legs::kNetworked:
      return {NetLeg::radio_then_path(w.access, w.cell, path),
              NetLeg::path_then_radio(w.access, w.cell, path)};
    case Legs::kLocal:
      return {};
    case Legs::kConstant: {
      const auto fixed = [constant](sixg::Rng&) { return constant; };
      return {NetLeg(fixed), NetLeg(fixed)};
    }
  }
  return {};
}

FleetStudy::ServerSpec edge_spec(const CityWorld& w, Legs legs,
                                 Duration constant) {
  FleetStudy::ServerSpec spec;
  spec.accelerator = sixg::edgeai::AcceleratorProfile::edge_gpu();
  spec.batching.max_batch = 16;
  spec.batching.batch_window = Duration::from_millis_f(1.0);
  spec.batching.queue_capacity = 256;
  spec.tier = sixg::edgeai::ExecutionTier::kEdge;
  auto set = legs_for(w, w.edge_path, legs, constant);
  spec.uplink = std::move(set.up);
  spec.downlink = std::move(set.down);
  return spec;
}

FleetStudy::ServerSpec cloud_spec(const CityWorld& w, Legs legs,
                                  Duration constant) {
  FleetStudy::ServerSpec spec;
  spec.name = "cloud";
  spec.accelerator = sixg::edgeai::AcceleratorProfile::cloud_gpu();
  spec.batching.max_batch = 32;
  spec.batching.batch_window = Duration::from_millis_f(2.0);
  spec.batching.queue_capacity = 512;
  spec.tier = sixg::edgeai::ExecutionTier::kCloud;
  auto set = legs_for(w, w.cloud_path, legs, constant);
  spec.uplink = std::move(set.up);
  spec.downlink = std::move(set.down);
  return spec;
}

FleetStudy::Config city_config(std::uint64_t seed, std::uint32_t requests) {
  FleetStudy::Config config;
  config.model = sixg::edgeai::ModelZoo::at("det-base");
  config.policy = sixg::edgeai::DispatchPolicy::kJoinShortestQueue;
  config.arrivals_per_second = kCityLoad;
  config.requests = requests;
  config.slo = Duration::from_millis_f(20.0);
  config.energy.uplink = DataRate::gbps(2);
  config.energy.downlink = DataRate::gbps(4);
  config.seed = seed;
  return config;
}

struct FleetCall {
  std::string label;
  FleetStudy::Config config;
};

/// fleet-window: JSQ over 2/3/4/6 edge GPUs, then tier-affine over 4
/// edge GPUs with a cloud backstop.
std::vector<FleetCall> window_calls(const CityWorld& w, std::uint64_t seed,
                                    Legs legs, Duration constant = {}) {
  std::vector<FleetCall> calls;
  // Ledger variants carry their own labels: their digests differ from
  // the networked calls' and are checked only against their repeats.
  const std::string prefix = legs == Legs::kLocal      ? "local/"
                             : legs == Legs::kConstant ? "const-legs/"
                                                       : "";
  const std::size_t jsq_sizes[] = {2, 3, 4, 6};
  std::uint64_t point = 0;
  for (const std::size_t edges : jsq_sizes) {
    auto config = city_config(sixg::derive_seed(seed, point++),
                              kWindowRequestsPerPoint);
    for (std::size_t s = 0; s < edges; ++s)
      config.servers.push_back(edge_spec(w, legs, constant));
    calls.push_back(
        {prefix + "jsq-" + std::to_string(edges), std::move(config)});
  }
  auto affine =
      city_config(sixg::derive_seed(seed, point++), kWindowRequestsPerPoint);
  affine.policy = sixg::edgeai::DispatchPolicy::kTierAffine;
  for (std::size_t s = 0; s < 4; ++s)
    affine.servers.push_back(edge_spec(w, legs, constant));
  affine.servers.push_back(cloud_spec(w, legs, constant));
  calls.push_back({prefix + "affine-4+cloud", std::move(affine)});
  return calls;
}

/// fleet-hardened: continuous batching, 2 lanes, interactive/batch SLO
/// classes with deadlines and admission bounds, a diurnal + flash-crowd
/// day at ~1.25x the 3-GPU capacity, crashes + stragglers, retries +
/// hedges.
std::vector<FleetCall> hardened_calls(const CityWorld& w,
                                      std::uint64_t seed) {
  const double rate = 1.25 * 3 * kEdgeGpuCapacity;
  auto config = city_config(sixg::derive_seed(seed, 0x4a7d), kHardenedRequests);
  config.arrivals_per_second = rate;
  for (std::size_t s = 0; s < 3; ++s) {
    auto spec = edge_spec(w, Legs::kNetworked, {});
    spec.batching.continuous = true;
    spec.batching.lanes = 2;
    config.servers.push_back(std::move(spec));
  }
  FleetStudy::SloClassSpec interactive;
  interactive.name = "interactive";
  interactive.share = 0.3;
  interactive.deadline = Duration::from_millis_f(50.0);
  interactive.lane = 0;
  FleetStudy::SloClassSpec batch;
  batch.name = "batch";
  batch.share = 0.7;
  batch.slo = Duration::from_millis_f(100.0);
  batch.deadline = Duration::from_millis_f(250.0);
  batch.lane = 1;
  batch.shed_queue_depth = 192;
  config.classes = {interactive, batch};

  config.shape.diurnal_amplitude = 0.4;
  config.shape.diurnal_period = Duration::seconds(6);
  config.shape.flash_multiplier = 2.0;
  config.shape.flash_every = Duration::seconds(3);
  config.shape.flash_duration = Duration::from_millis_f(250.0);

  // Servers and horizon set explicitly (rather than left to the engine's
  // defaults) so the plan-generation probe times the very same plan.
  config.faults.server_crash_rate_per_s = 0.3;
  config.faults.server_mttr = Duration::millis(80);
  config.faults.straggler_rate_per_s = 0.5;
  config.faults.straggler_mean = Duration::millis(50);
  config.faults.straggler_factor = 4.0;
  config.faults.servers = 3;
  config.faults.horizon =
      Duration::from_seconds_f(1.25 * double(kHardenedRequests) / rate);

  config.resilience.deadline = Duration::from_millis_f(50.0);
  config.resilience.max_retries = 2;
  config.resilience.retry_backoff = Duration::micros(200);
  config.resilience.hedge_delay = Duration::from_millis_f(25.0);
  return {{"hardened", std::move(config)}};
}

/// fleet-sharded: 8 pods x (3 edge GPUs, 12k req/s), 10 % remote over
/// the Klagenfurt -> Vienna backbone, window = its latency floor.
ShardedFleetStudy::Config sharded_config(const CityWorld& w,
                                         std::uint64_t seed,
                                         unsigned workers) {
  ShardedFleetStudy::Config config;
  config.shard = city_config(sixg::derive_seed(seed, 0x5a4d),
                             kShardedRequestsPerPod);
  for (std::size_t s = 0; s < 3; ++s)
    config.shard.servers.push_back(edge_spec(w, Legs::kNetworked, {}));
  config.shards = kShardedPods;
  config.workers = workers;
  config.window = w.interpod.min_latency();
  config.remote_fraction = 0.10;
  config.remote_uplink = NetLeg::wired(w.interpod);
  config.remote_downlink = NetLeg::wired(w.interpod);
  return config;
}

// ------------------------------------------------------------ call layer

/// Report invariants every fleet call must satisfy at any seed.
std::string fleet_invariants(const FleetStudy::Report& r,
                             std::uint64_t requests) {
  if (r.e2e_ms.count() + r.failed != requests)
    return "e2e_ms.count() + failed != requests";
  if (!r.classes.empty()) {
    std::uint64_t offered = 0;
    for (const auto& c : r.classes) offered += c.offered;
    if (offered != requests) return "per-class offered != arrivals";
  }
  return {};
}

/// Compare the obs counters of one traced call with its Report fields.
void cross_check(Env& env, const char* workload, const std::string& call,
                 const ObsRecord& c, const FleetStudy::Report& r,
                 std::uint64_t requests,
                 const ShardedFleetStudy::Report* sharded) {
  struct Pair {
    const char* counter;
    std::uint64_t obs;
    const char* field;
    std::uint64_t report;
  };
  std::vector<Pair> pairs = {
      {"fleet.arrivals+fleet.shed",
       c.counter("fleet.arrivals") + c.counter("fleet.shed"), "requests",
       requests},
      {"fleet.completed", c.counter("fleet.completed"), "e2e_ms.count()",
       r.e2e_ms.count()},
      {"serve.completed", c.counter("serve.completed"), "completed",
       r.completed},
      {"serve.dropped", c.counter("serve.dropped"), "dropped", r.dropped},
      {"serve.batches", c.counter("serve.batches"), "batches", r.batches},
      {"fleet.shed", c.counter("fleet.shed"), "shed", r.shed},
      {"fleet.timeouts", c.counter("fleet.timeouts"), "timed_out",
       r.timed_out},
      {"fleet.retries", c.counter("fleet.retries"), "retries", r.retries},
      {"fleet.hedges", c.counter("fleet.hedges"), "hedges", r.hedges},
      {"fleet.lost_to_crashes", c.counter("fleet.lost_to_crashes"),
       "lost_to_crashes", r.lost_to_crashes},
      {"fault.events", c.counter("fault.events"), "fault_events",
       r.fault_events},
  };
  if (sharded != nullptr) {
    pairs.push_back({"shard.windows", c.counter("shard.windows"), "windows",
                     sharded->windows});
    pairs.push_back({"shard.messages", c.counter("shard.messages"),
                     "mailbox_messages", sharded->mailbox_messages});
    pairs.push_back({"fleet.remote", c.counter("fleet.remote"),
                     "remote_requests", sharded->remote_requests});
  }
  for (const Pair& p : pairs) {
    if (p.obs == p.report) continue;
    env.mismatches.emplace(
        std::string(workload) + '/' + call + '/' + p.counter,
        "{\"workload\":" + json_string(workload) +
        ",\"call\":" + json_string(call) +
        ",\"counter\":" + json_string(p.counter) +
        ",\"obs\":" + std::to_string(p.obs) +
        ",\"report_field\":" + json_string(p.field) +
        ",\"report\":" + std::to_string(p.report) + "}");
  }
}

/// Sums over the calls of one pass.
struct PassTotals {
  std::uint64_t requests = 0;
  double call_s = 0.0;  ///< summed call host seconds
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t lost = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;
  std::uint64_t remote = 0;
  ObsRecord obs;  ///< counters summed over the pass (traced passes)

  void add(const FleetStudy::Report& r, std::uint64_t n) {
    requests += n;
    completed += r.completed;
    batches += r.batches;
    dropped += r.dropped;
    retries += r.retries;
    hedges += r.hedges;
    hedge_wins += r.hedge_wins;
    shed += r.shed;
    timeouts += r.timed_out;
    lost += r.lost_to_crashes;
    fault_events += r.fault_events;
  }
  void add_obs(const ObsRecord& rec) {
    for (const auto& [name, v] : rec.counters) obs.counters[name] += v;
    obs.worker_busy_ns += rec.worker_busy_ns;
    obs.worker_stall_ns += rec.worker_stall_ns;
  }
};

/// One checked FleetStudy::run. `pinned` calls are compared with the
/// committed seed-1 digests; ledger variants only with their repeats.
void fleet_call(Env& env, const char* workload, const FleetCall& call,
                bool traced, bool pinned, PassTotals& totals) {
  const std::uint64_t id = env.next_call++;
  if (traced) open_obs_record(call.label);
  FleetStudy::Report report;
  {
    SpanGuard span(env.spans, "edgeai.FleetStudy::run", id);
    report = FleetStudy::run(call.config);
    const double seconds = span.stop();
    totals.call_s += seconds;
    env.call_time(std::string(workload) + ' ' + call.label, seconds);
  }
  const std::uint64_t requests = call.config.requests;
  if (traced) {
    const ObsRecord rec = close_obs_record();
    cross_check(env, workload, call.label, rec, report, requests, nullptr);
    totals.add_obs(rec);
  }
  totals.add(report, requests);
  const std::string broken = fleet_invariants(report, requests);
  env.out.call(workload, call.label,
               sixg::edgeai::fleet_report_digest(report), broken.empty(),
               broken, pinned);
}

void sharded_call(Env& env, const ShardedFleetStudy::Config& config,
                  bool traced, PassTotals& totals) {
  const std::uint64_t id = env.next_call++;
  if (traced) open_obs_record("pods8");
  ShardedFleetStudy::Report report;
  {
    SpanGuard span(env.spans, "edgeai.ShardedFleetStudy::run", id);
    report = ShardedFleetStudy::run(config);
    const double seconds = span.stop();
    totals.call_s += seconds;
    env.call_time(std::string(kFleetSharded) + " pods8/workers" +
                      std::to_string(config.workers),
                  seconds);
  }
  const std::uint64_t requests =
      std::uint64_t(config.shards) * config.shard.requests;
  if (traced) {
    const ObsRecord rec = close_obs_record();
    cross_check(env, kFleetSharded, "pods8", rec, report, requests, &report);
    totals.add_obs(rec);
  }
  totals.add(report, requests);
  totals.windows += report.windows;
  totals.messages += report.mailbox_messages;
  totals.remote += report.remote_requests;
  const std::string broken = fleet_invariants(report, requests);
  // Same label at every worker count: the repeat check is the
  // worker-count invariance check.
  env.out.call(kFleetSharded, "pods8",
               sixg::edgeai::fleet_report_digest(report), broken.empty(),
               broken);
}

/// The calls of one workload, built against one world.
struct Plan {
  std::unique_ptr<CityWorld> world;
  std::vector<FleetCall> calls;         ///< fleet-window / fleet-hardened
  ShardedFleetStudy::Config sharded{};  ///< fleet-sharded
};

Plan make_plan(Spans& spans, FleetKind kind, std::uint64_t seed) {
  Plan plan;
  plan.world = build_world(spans, nullptr);
  switch (kind) {
    case FleetKind::kWindow:
      plan.calls = window_calls(*plan.world, seed, Legs::kNetworked);
      break;
    case FleetKind::kHardened:
      plan.calls = hardened_calls(*plan.world, seed);
      break;
    case FleetKind::kSharded:
      plan.sharded = sharded_config(*plan.world, seed, sharded_workers());
      break;
  }
  return plan;
}

/// One pass of the workload's calls.
PassTotals run_pass(Env& env, FleetKind kind, const Plan& plan, bool traced,
                    unsigned workers_override = 0) {
  PassTotals totals;
  const int span = env.spans.begin("pass", 0);
  if (kind == FleetKind::kSharded) {
    auto config = plan.sharded;
    if (workers_override != 0) config.workers = workers_override;
    sharded_call(env, config, traced, totals);
  } else {
    for (const FleetCall& call : plan.calls)
      fleet_call(env, workload_name(kind), call, traced, true, totals);
  }
  env.spans.end(span);
  return totals;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------- layer probes

/// ns per NetLeg::sample_into draw over the edge up- and downlink legs
/// (alternating 4096-draw blocks); also returns the legs' mean one-way
/// delay, read off the last blocks.
double leg_ns_per_draw(Env& env, const CityWorld& w, int reps,
                       Duration* mean_leg) {
  const LegSet legs = legs_for(w, w.edge_path, Legs::kNetworked, {});
  constexpr std::size_t kBlock = 4096;
  constexpr std::size_t kBlocks = 128;
  std::vector<Duration> up(kBlock);
  std::vector<Duration> down(kBlock);
  sixg::topo::PathBatchScratch scratch;
  std::vector<double> ns;
  for (int rep = 0; rep < reps; ++rep) {
    sixg::Rng rng{sixg::derive_seed(env.options.seed, 0x1e9 + rep)};
    const std::uint64_t id = env.next_call++;
    SpanGuard span(env.spans, "topo.NetLeg::sample_into", id);
    for (std::size_t b = 0; b < kBlocks; b += 2) {
      legs.up.sample_into(std::span<Duration>(up), rng, scratch);
      legs.down.sample_into(std::span<Duration>(down), rng, scratch);
    }
    ns.push_back(span.stop() * 1e9 / double(kBlock * kBlocks));
  }
  double sum_ms = 0.0;
  for (std::size_t i = 0; i < kBlock; ++i) sum_ms += up[i].ms() + down[i].ms();
  *mean_leg = Duration::from_millis_f(sum_ms / double(2 * kBlock));
  return median(ns);
}

/// ns per event of a bare Simulator firing `events` no-op events from
/// kBareChains self-rescheduling chains.
double bare_ns_per_event(Env& env, std::uint64_t events, int reps) {
  struct Tick {
    sixg::netsim::Simulator* sim;
    std::uint64_t* left;
    std::int64_t step_ns;
    void operator()() {
      if (*left == 0) return;
      --*left;
      sim->schedule_after(Duration::nanos(step_ns), Tick{*this});
    }
  };
  std::vector<double> ns;
  for (int rep = 0; rep < reps; ++rep) {
    sixg::netsim::Simulator sim{env.options.seed};
    std::uint64_t left = events;
    const std::uint64_t id = env.next_call++;
    SpanGuard span(env.spans, "netsim.Simulator::run", id);
    for (std::uint32_t c = 0; c < kBareChains; ++c)
      sim.schedule_after(Duration::nanos(c + 1),
                         Tick{&sim, &left, 50000 + 977 * std::int64_t(c)});
    sim.run();
    ns.push_back(span.stop() * 1e9 /
                 double(std::max<std::uint64_t>(sim.processed_events(), 1)));
  }
  return median(ns);
}

/// Untraced and traced passes, interleaved. Returns the traced totals of
/// the first traced pass (all traced passes run identical work).
struct PairedPasses {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> traced_call_s;  ///< summed call spans per pass
  PassTotals totals;
};

PairedPasses paired_passes(Env& env, FleetKind kind, const Plan& plan,
                           Depth depth) {
  PairedPasses out;
  const std::size_t min_pairs = depth == Depth::kFull ? 3 : 1;
  const double budget =
      depth == Depth::kFull ? 0.6 * env.options.seconds : 0.0;
  const bool spans_on = env.spans.enabled();
  const auto start = Clock::now();
  while (out.untraced_s.size() < min_pairs || seconds_since(start) < budget) {
    env.spans.set_enabled(false);
    auto t0 = Clock::now();
    (void)run_pass(env, kind, plan, false);
    out.untraced_s.push_back(seconds_since(t0));
    env.spans.set_enabled(spans_on);
    t0 = Clock::now();
    PassTotals totals = run_pass(env, kind, plan, true);
    out.traced_s.push_back(seconds_since(t0));
    out.traced_call_s.push_back(totals.call_s);
    if (out.traced_s.size() == 1) out.totals = std::move(totals);
  }
  return out;
}

void window_layers(Env& env, Depth depth) {
  const bool full = depth == Depth::kFull;
  const Plan plan = make_plan(env.spans, FleetKind::kWindow, env.options.seed);
  const CityWorld& w = *plan.world;
  const PairedPasses pp = paired_passes(env, FleetKind::kWindow, plan, depth);
  const PassTotals& t = pp.totals;
  const double requests = double(t.requests);
  const double events = double(t.obs.counter("kernel.events_fired"));
  const double fleet_ns = median(pp.traced_call_s) * 1e9 / requests;

  Duration mean_leg;
  const double leg_ns = leg_ns_per_draw(env, w, full ? 5 : 1, &mean_leg);
  const double bare_ns = bare_ns_per_event(
      env, t.obs.counter("kernel.events_fired"), full ? 3 : 1);
  const double heap = double(t.obs.counter("kernel.heap_pushes"));
  const double parks = double(t.obs.counter("kernel.calendar_parks"));

  auto& out = env.out;
  out.metric("topo.leg_ns_per_draw", leg_ns, "ns");
  out.metric("netsim.events_per_req", events / requests, "count");
  out.metric("netsim.ns_per_event", fleet_ns * requests / events, "ns");
  out.metric("netsim.bare_ns_per_event", bare_ns, "ns");
  out.metric("netsim.heap_push_share", ratio(heap, heap + parks), "ratio");
  out.metric("edgeai.fleet_ns_per_req", fleet_ns, "ns");
  out.metric("edgeai.batches_per_req", double(t.batches) / requests,
             "count");
  out.metric("edgeai.mean_batch",
             ratio(double(t.completed), double(t.batches)), "count");
  out.metric("edgeai.drop_share", double(t.dropped) / requests, "ratio");

  // Per-request cost ledger. The networked-vs-local comparison runs the
  // same five calls with no legs and with constant-delay legs (an
  // opaque callable: same events, no random draws), untraced, in
  // rounds with the networked calls so all three share the host's state.
  const auto local_plan = window_calls(w, env.options.seed, Legs::kLocal);
  const auto const_plan =
      window_calls(w, env.options.seed, Legs::kConstant, mean_leg);
  const auto variant_pass = [&](const std::vector<FleetCall>& calls,
                                bool traced, bool pinned) {
    PassTotals totals;
    for (const FleetCall& call : calls)
      fleet_call(env, kFleetWindow, call, traced, pinned, totals);
    return totals;
  };
  const auto timed = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return seconds_since(t0);
  };
  std::vector<double> net_s;
  std::vector<double> local_s;
  std::vector<double> const_s;
  const bool spans_on = env.spans.enabled();
  env.spans.set_enabled(false);
  for (int rep = 0; rep < (full ? 5 : 1); ++rep) {
    net_s.push_back(timed([&] { variant_pass(plan.calls, false, true); }));
    local_s.push_back(timed([&] { variant_pass(local_plan, false, false); }));
    const_s.push_back(timed([&] { variant_pass(const_plan, false, false); }));
  }
  env.spans.set_enabled(spans_on);
  const PassTotals local_t = variant_pass(local_plan, true, false);
  const double local_events =
      double(local_t.obs.counter("kernel.events_fired")) / requests;

  const double legs_ns = 2.0 * leg_ns;
  const double kernel_ns = events / requests * bare_ns;
  const double net_ns = median(net_s) * 1e9 / requests;
  const double local_ns = median(local_s) * 1e9 / requests;
  const double extra_events = events / requests - local_events;
  const double extra_kernel_ns = extra_events * bare_ns;
  out.metric("ledger.legs_ns_per_req", legs_ns, "ns");
  out.metric("ledger.kernel_ns_per_req", kernel_ns, "ns");
  out.metric("ledger.engine_ns_per_req", fleet_ns - legs_ns - kernel_ns,
             "ns");
  out.metric("ledger.networked_ns_per_req", net_ns, "ns");
  out.metric("ledger.local_ns_per_req", local_ns, "ns");
  out.metric("ledger.const_leg_ns_per_req",
             median(const_s) * 1e9 / requests, "ns");
  out.metric("ledger.net_extra_ns_per_req", net_ns - local_ns, "ns");
  out.metric("ledger.net_extra_events_per_req", extra_events, "count");
  out.metric("ledger.net_extra_kernel_ns_per_req", extra_kernel_ns, "ns");
  out.metric("ledger.net_extra_engine_ns_per_req",
             net_ns - local_ns - legs_ns - extra_kernel_ns, "ns");
  out.metric("ledger.net_extra_rng_ns_per_req",
             net_ns - median(const_s) * 1e9 / requests, "ns");
  if (full) {
    out.metric("obs.trace_overhead_share",
               median(pp.traced_s) / median(pp.untraced_s) - 1.0, "ratio");
  }
}

void hardened_layers(Env& env, Depth depth) {
  const bool full = depth == Depth::kFull;
  const Plan plan =
      make_plan(env.spans, FleetKind::kHardened, env.options.seed);
  const PairedPasses pp =
      paired_passes(env, FleetKind::kHardened, plan, depth);
  const PassTotals& t = pp.totals;
  const double requests = double(t.requests);
  const double armed = double(t.obs.counter("kernel.timers_armed"));

  std::vector<double> plan_s;
  std::size_t plan_events = 0;
  const auto& config = plan.calls.front().config;
  for (int rep = 0; rep < (full ? 21 : 5); ++rep) {
    const std::uint64_t id = env.next_call++;
    SpanGuard span(env.spans, "faults.FaultPlan::generate", id);
    const auto fault_plan =
        sixg::faults::FaultPlan::generate(config.faults, config.seed);
    plan_s.push_back(span.stop());
    plan_events = fault_plan.events.size();
  }
  env.out.check("fleet-hardened fault plan is not empty", plan_events > 0);

  auto& out = env.out;
  out.metric("netsim.timers_per_req", armed / requests, "count");
  out.metric("netsim.timer_cancel_ratio",
             ratio(double(t.obs.counter("kernel.timers_cancelled")), armed),
             "ratio");
  out.metric("edgeai.retries_per_req", double(t.retries) / requests, "count");
  out.metric("edgeai.hedges_per_req", double(t.hedges) / requests, "count");
  out.metric("edgeai.hedge_win_ratio",
             ratio(double(t.hedge_wins), double(t.hedges)), "ratio");
  out.metric("edgeai.shed_share", double(t.shed) / requests, "ratio");
  out.metric("edgeai.timeouts", double(t.timeouts), "count");
  out.metric("edgeai.lost_to_crashes", double(t.lost), "count");
  // From the Report: the obs fault counter is not incremented anywhere
  // (see the counter cross-check in the run's detail).
  out.metric("faults.events_fired", double(t.fault_events), "count");
  out.metric("faults.plan_generate_s", median(plan_s), "s");
  if (full) {
    out.metric("obs.trace_overhead_share",
               median(pp.traced_s) / median(pp.untraced_s) - 1.0, "ratio");
  }
}

void sharded_layers(Env& env, Depth depth) {
  const bool full = depth == Depth::kFull;
  const Plan plan = make_plan(env.spans, FleetKind::kSharded, env.options.seed);
  // The timed calls run at sharded_workers(); the scaling metrics
  // compare 1 worker with scaling_workers(), the width ROADMAP item 1
  // is about.
  const unsigned scale = scaling_workers();
  std::vector<double> untraced_s;  // timed-call width, untraced
  std::vector<double> traced_s;    // timed-call width, traced
  std::vector<double> traced_1;
  std::vector<double> traced_n;    // `scale` workers
  PassTotals t;
  const std::size_t min_rounds = full ? 3 : 1;
  const double budget = full ? 0.6 * env.options.seconds : 0.0;
  const bool spans_on = env.spans.enabled();
  const auto start = Clock::now();
  while (untraced_s.size() < min_rounds || seconds_since(start) < budget) {
    env.spans.set_enabled(false);
    const auto t0 = Clock::now();
    (void)run_pass(env, FleetKind::kSharded, plan, false);
    untraced_s.push_back(seconds_since(t0));
    env.spans.set_enabled(spans_on);
    traced_s.push_back(run_pass(env, FleetKind::kSharded, plan, true).call_s);
    traced_1.push_back(
        run_pass(env, FleetKind::kSharded, plan, true, 1).call_s);
    PassTotals tn = run_pass(env, FleetKind::kSharded, plan, true, scale);
    traced_n.push_back(tn.call_s);
    if (traced_n.size() == 1) t = std::move(tn);
  }
  const double tn = median(traced_n);
  const double t1 = median(traced_1);
  const double windows = double(t.windows);
  const double busy = double(t.obs.worker_busy_ns);
  const double stall = double(t.obs.worker_stall_ns);

  auto& out = env.out;
  out.metric("netsim.shard_windows", windows, "count");
  out.metric("netsim.msgs_per_window", ratio(double(t.messages), windows),
             "count");
  out.metric("netsim.shard_speedup", ratio(t1, tn), "ratio");
  out.metric("netsim.window_overhead_us",
             ratio((tn - t1 / double(scale)) * 1e6, windows), "us");
  out.metric("netsim.worker_stall_share", ratio(stall, busy + stall),
             "ratio");
  out.metric("edgeai.remote_share",
             double(t.remote) / double(t.requests), "ratio");
  if (full) {
    out.metric("obs.trace_overhead_share",
               median(traced_s) / median(untraced_s) - 1.0, "ratio");
  }
}

}  // namespace

const char* workload_name(FleetKind kind) {
  switch (kind) {
    case FleetKind::kWindow:
      return kFleetWindow;
    case FleetKind::kHardened:
      return kFleetHardened;
    case FleetKind::kSharded:
      return kFleetSharded;
  }
  return "";
}

unsigned sharded_workers() { return std::min(2U, host_cores()); }

unsigned scaling_workers() { return std::min(4U, host_cores()); }

void fleet_end_to_end(Env& env, FleetKind kind) {
  std::vector<double> setup_s;
  Plan plan;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    Plan candidate = make_plan(env.spans, kind, env.options.seed);
    setup_s.push_back(seconds_since(start));
    if (i == 0) plan = std::move(candidate);
  }
  (void)run_pass(env, kind, plan, false);  // warm-up, checked like the rest
  std::uint64_t settled = 0;
  const auto pass_s = timed_passes(env.options.seconds, 3, [&] {
    settled = run_pass(env, kind, plan, false).requests;
  });
  const double run_s = emit_end_to_end(env, setup_s, pass_s, double(settled));
  env.out.detail_number("sim_req_per_s", double(settled) / run_s);
}

void fleet_layers(Env& env, FleetKind kind, Depth depth) {
  switch (kind) {
    case FleetKind::kWindow:
      window_layers(env, depth);
      break;
    case FleetKind::kHardened:
      hardened_layers(env, depth);
      break;
    case FleetKind::kSharded:
      sharded_layers(env, depth);
      break;
  }
}

void setup_layers(Env& env) {
  std::vector<double> study;
  std::vector<double> europe;
  std::vector<double> paths;
  for (int i = 0; i < kSetupRepeats; ++i) {
    SetupTimes t;
    const int span = env.spans.begin("setup", 0);
    (void)build_world(env.spans, &t);
    env.spans.end(span);
    study.push_back(t.study_s);
    europe.push_back(t.europe_s);
    paths.push_back(t.paths_s);
  }
  env.out.metric("core.study_build_s", median(study), "s");
  env.out.metric("topo.build_europe_s", median(europe), "s");
  env.out.metric("topo.path_compile_s", median(paths), "s");
}

}  // namespace perfbench

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/ar_game.hpp"
#include "core/registry.hpp"
#include "core/scenarios.hpp"
#include "edgeai/accelerator.hpp"
#include "edgeai/energy.hpp"
#include "edgeai/model.hpp"
#include "edgeai/offload.hpp"
#include "edgeai/serving.hpp"
#include "netsim/simulator.hpp"

namespace sixg::edgeai {
namespace {

using namespace sixg::literals;

// ---------------------------------------------------------------- model zoo

TEST(ModelZoo, ProfilesAndLookup) {
  const auto& zoo = ModelZoo::profiles();
  ASSERT_GE(zoo.size(), 4u);
  std::set<std::string> names;
  for (const auto& m : zoo) {
    EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    EXPECT_GT(m.gflops, 0.0) << m.name;
    EXPECT_GT(m.input_size.bit_count(), 0) << m.name;
    EXPECT_GT(m.batch_marginal_cost, 0.0) << m.name;
    EXPECT_LT(m.batch_marginal_cost, 1.0) << m.name;
  }
  ASSERT_NE(ModelZoo::find("det-base"), nullptr);
  EXPECT_EQ(ModelZoo::find("det-base")->tier, AccuracyTier::kBase);
  EXPECT_EQ(ModelZoo::find("no-such-model"), nullptr);
  EXPECT_EQ(&ModelZoo::at("det-base"), ModelZoo::find("det-base"));
}

TEST(ModelZoo, BatchComputeIsSublinear) {
  const auto& m = ModelZoo::at("det-base");
  EXPECT_DOUBLE_EQ(m.batch_gflops(1), m.gflops);
  double prev_per_item = m.batch_gflops(1);
  for (std::uint32_t b = 2; b <= 32; b *= 2) {
    EXPECT_LT(m.batch_gflops(b), m.gflops * double(b)) << b;
    const double per_item = m.batch_gflops(b) / double(b);
    EXPECT_LT(per_item, prev_per_item) << b;  // amortisation is monotone
    prev_per_item = per_item;
  }
}

// -------------------------------------------------------------- accelerator

TEST(Accelerator, ServiceTimeRoofline) {
  const auto edge = AcceleratorProfile::edge_gpu();
  const auto device = AcceleratorProfile::device_npu();
  const auto& m = ModelZoo::at("det-base");

  Duration prev;
  double prev_per_item = 1e18;
  for (const std::uint32_t b : {1u, 2u, 4u, 8u, 16u}) {
    const Duration t = edge.service_time(m, b);
    EXPECT_GT(t, prev) << b;  // a bigger batch takes longer...
    const double per_item = t.ms() / double(b);
    EXPECT_LT(per_item, prev_per_item) << b;  // ...but less per request
    prev = t;
    prev_per_item = per_item;
  }
  EXPECT_LT(edge.service_time(m, 1), device.service_time(m, 1));
}

TEST(Accelerator, MemoryGatesThePlacement) {
  const auto& caption = ModelZoo::at("caption-large");
  EXPECT_FALSE(AcceleratorProfile::device_npu().fits(caption));
  EXPECT_TRUE(AcceleratorProfile::edge_gpu().fits(caption));
  EXPECT_TRUE(AcceleratorProfile::cloud_gpu().fits(caption));
  EXPECT_TRUE(AcceleratorProfile::device_npu().fits(ModelZoo::at("kws-lite")));
}

// --------------------------------------------------- dynamic batching server

struct ServerHarness {
  netsim::Simulator sim;
  AcceleratorServer server;
  std::vector<AcceleratorServer::Completion> completions;

  explicit ServerHarness(AcceleratorServer::BatchingConfig config,
                         const char* model = "det-base")
      : sim(1),
        server(sim, AcceleratorProfile::edge_gpu(), ModelZoo::at(model),
               config) {
    server.set_completion_sink(
        [this](std::uint32_t, std::uint64_t,
               const AcceleratorServer::Completion& c) {
          completions.push_back(c);
        });
  }

  void submit_at(Duration when, std::uint32_t id) {
    sim.schedule_at(TimePoint{} + when,
                    [this, id] { (void)server.submit(id); });
  }
};

TEST(AcceleratorServer, BatchNeverExceedsMax) {
  ServerHarness h{{.max_batch = 8, .batch_window = 2.0_ms,
                   .queue_capacity = 256}};
  for (std::uint32_t i = 0; i < 30; ++i) h.submit_at(Duration{}, i);
  h.sim.run();

  ASSERT_EQ(h.completions.size(), 30u);
  for (const auto& c : h.completions) {
    EXPECT_GE(c.batch_size, 1u);
    EXPECT_LE(c.batch_size, 8u);
  }
  EXPECT_GE(h.server.batches_launched(), 4u);  // ceil(30/8)
  EXPECT_EQ(h.server.completed(), 30u);
  EXPECT_EQ(h.server.submitted(), 30u);
  EXPECT_EQ(h.server.dropped(), 0u);
  // Telemetry after the drain: idle server, empty queue, and a mean
  // batch consistent with the counters.
  EXPECT_FALSE(h.server.busy());
  EXPECT_EQ(h.server.queue_depth(), 0u);
  EXPECT_GT(h.server.mean_batch_size(), 1.0);
  EXPECT_LE(h.server.mean_batch_size(), 8.0);
  EXPECT_DOUBLE_EQ(h.server.mean_batch_size(),
                   30.0 / double(h.server.batches_launched()));
}

TEST(AcceleratorServer, FifoWithinAndAcrossBatches) {
  ServerHarness h{{.max_batch = 4, .batch_window = 1.0_ms,
                   .queue_capacity = 256}};
  for (std::uint32_t i = 0; i < 21; ++i)
    h.submit_at(Duration::micros(std::int64_t(i) * 137), i);
  h.sim.run();

  ASSERT_EQ(h.completions.size(), 21u);
  for (std::uint64_t i = 0; i < h.completions.size(); ++i) {
    EXPECT_EQ(h.completions[i].request_id, i);  // submission order preserved
  }
  for (const auto& c : h.completions) {
    EXPECT_GE(c.started, c.submitted);
    EXPECT_GT(c.done, c.started);
  }
}

TEST(AcceleratorServer, WindowCoalescesNearbyArrivals) {
  {
    ServerHarness h{{.max_batch = 8, .batch_window = 2.0_ms,
                     .queue_capacity = 256}};
    h.submit_at(Duration{}, 0);
    h.submit_at(Duration::from_millis_f(0.5), 1);
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].batch_size, 2u);  // one shared batch
    EXPECT_EQ(h.server.batches_launched(), 1u);
  }
  {
    ServerHarness h{{.max_batch = 8, .batch_window = 1.0_ms,
                     .queue_capacity = 256}};
    h.submit_at(Duration{}, 0);
    h.submit_at(Duration::from_millis_f(8.0), 1);  // beyond window + service
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].batch_size, 1u);
    EXPECT_EQ(h.completions[1].batch_size, 1u);
    EXPECT_EQ(h.server.batches_launched(), 2u);
  }
}

TEST(AcceleratorServer, FullBatchSkipsTheWindow) {
  // Four requests at t=0 with max_batch 4: the batch must launch
  // immediately, not after the (long) window.
  ServerHarness h{{.max_batch = 4, .batch_window = 50.0_ms,
                   .queue_capacity = 256}};
  for (std::uint32_t i = 0; i < 4; ++i) h.submit_at(Duration{}, i);
  h.sim.run();
  ASSERT_EQ(h.completions.size(), 4u);
  EXPECT_EQ(h.completions[0].batch_size, 4u);
  EXPECT_LT(h.completions[0].done.ms(), 25.0);  // far below the window
}

TEST(AcceleratorServer, BoundedQueueDropsOverflow) {
  ServerHarness h{{.max_batch = 1, .batch_window = Duration{},
                   .queue_capacity = 4}};
  // One submission event: the first launches immediately (max_batch 1),
  // the next four fill the queue, the rest must drop.
  h.sim.schedule_at(TimePoint{}, [&h] {
    int accepted = 0;
    for (std::uint32_t i = 0; i < 10; ++i) {
      if (h.server.submit(i)) ++accepted;
    }
    EXPECT_EQ(accepted, 5);
  });
  h.sim.run();
  EXPECT_EQ(h.server.dropped(), 5u);
  EXPECT_EQ(h.server.completed(), 5u);
  ASSERT_EQ(h.completions.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_EQ(h.completions[i].request_id, i);
}

TEST(AcceleratorServer, ContinuousLaunchesImmediatelyAndReformsBatches) {
  // Iteration-level scheduling: a lone request on an idle server launches
  // as a batch of one at once — the (long) window never arms — and the
  // arrivals queued during its service re-form the next batch at the
  // completion, not at a timer.
  ServerHarness h{{.max_batch = 8, .batch_window = 50.0_ms,
                   .queue_capacity = 256, .continuous = true}};
  h.submit_at(Duration{}, 0);
  for (std::uint32_t i = 1; i <= 5; ++i)
    h.submit_at(Duration::from_millis_f(0.1), i);
  h.sim.run();
  ASSERT_EQ(h.completions.size(), 6u);
  EXPECT_EQ(h.completions[0].batch_size, 1u);   // launched alone, at once
  EXPECT_LT(h.completions[0].done.ms(), 25.0);  // far below the window
  EXPECT_EQ(h.completions[1].batch_size, 5u);   // re-formed at completion
  EXPECT_EQ(h.server.batches_launched(), 2u);
}

TEST(AcceleratorServer, LanesPreemptByWholeLanesAtBatchFormation) {
  netsim::Simulator sim(1);
  AcceleratorServer::BatchingConfig config;
  config.max_batch = 4;
  config.queue_capacity = 16;
  config.continuous = true;
  config.lanes = 2;
  AcceleratorServer server(sim, AcceleratorProfile::edge_gpu(),
                           ModelZoo::at("det-base"), config);
  std::vector<std::uint32_t> order;
  server.set_completion_sink(
      [&order](std::uint32_t slot, std::uint64_t,
               const AcceleratorServer::Completion&) { order.push_back(slot); });
  sim.schedule_at(TimePoint{}, [&server] {
    (void)server.submit(std::uint32_t{0}, 0, 0);  // launches alone
  });
  // While slot 0 executes: lane 1 queues four requests FIRST, then lane 0
  // queues four. Batch formation drains lanes in index order, so the
  // late-arriving lane-0 work preempts the whole queued lane-1 backlog —
  // but only at the formation boundary, never mid-batch.
  sim.schedule_at(TimePoint{} + Duration::micros(50), [&server] {
    for (std::uint32_t s = 1; s <= 4; ++s) (void)server.submit(s, 0, 1);
    for (std::uint32_t s = 10; s <= 13; ++s) (void)server.submit(s, 0, 0);
  });
  sim.run();
  const std::vector<std::uint32_t> want{0, 10, 11, 12, 13, 1, 2, 3, 4};
  EXPECT_EQ(order, want);
  EXPECT_EQ(server.batches_launched(), 3u);
  EXPECT_EQ(server.dropped_queue_full(0), 0u);
  EXPECT_EQ(server.dropped_queue_full(1), 0u);
}

// ------------------------------------------------------------------ offload

TEST(Offload, LatencyGreedyIsMonotoneTowardsEdge) {
  const OffloadPlanner planner{OffloadPlanner::Config{}};
  const Duration edge_q = Duration::from_millis_f(1.0);
  const Duration cloud_q = Duration::from_millis_f(3.0);
  for (const auto& model : ModelZoo::profiles()) {
    bool edge_seen = false;
    // Sweep the access RTT downwards: once the edge wins, a faster link
    // must never flip the request away from it.
    for (const double rtt_ms : {80.0, 40.0, 20.0, 10.0, 5.0, 2.0, 1.0, 0.2}) {
      const auto pick = planner.choose(OffloadPolicy::kLatencyGreedy, model,
                                       Duration::from_millis_f(rtt_ms),
                                       edge_q, cloud_q);
      if (edge_seen) {
        EXPECT_EQ(pick.tier, ExecutionTier::kEdge)
            << model.name << " flipped away from edge at " << rtt_ms << " ms";
      }
      if (pick.tier == ExecutionTier::kEdge) edge_seen = true;
    }
  }
}

TEST(Offload, LatencyGreedyPicksTheFastestFeasibleTier) {
  const OffloadPlanner planner{OffloadPlanner::Config{}};
  const auto& model = ModelZoo::at("seg-large");
  const Duration rtt = Duration::from_millis_f(4.0);
  const Duration edge_q = Duration::from_millis_f(1.0);
  const Duration cloud_q = Duration::from_millis_f(3.0);
  const auto pick = planner.choose(OffloadPolicy::kLatencyGreedy, model, rtt,
                                   edge_q, cloud_q);
  for (const auto tier : kAllTiers) {
    const auto e = planner.estimate(tier, model, rtt, edge_q, cloud_q);
    if (e.feasible) EXPECT_LE(pick.total, e.total) << to_string(tier);
  }
}

TEST(Offload, EnergyAwareRespectsTheBudget) {
  OffloadPlanner::Config config;
  config.latency_budget = Duration::from_millis_f(20.0);
  const OffloadPlanner planner{config};
  const Duration edge_q = Duration::from_millis_f(1.0);
  const Duration cloud_q = Duration::from_millis_f(3.0);
  for (const auto& model : ModelZoo::profiles()) {
    for (const double rtt_ms : {0.5, 2.0, 5.0, 10.0}) {
      const Duration rtt = Duration::from_millis_f(rtt_ms);
      bool any_within = false;
      for (const auto tier : kAllTiers) {
        const auto e = planner.estimate(tier, model, rtt, edge_q, cloud_q);
        if (e.feasible && e.total <= config.latency_budget) any_within = true;
      }
      const auto pick = planner.choose(OffloadPolicy::kEnergyAware, model, rtt,
                                       edge_q, cloud_q);
      if (any_within) {
        EXPECT_LE(pick.total, config.latency_budget)
            << model.name << " @ " << rtt_ms;
        // And it is the cheapest battery option among budget-feasible tiers.
        for (const auto tier : kAllTiers) {
          const auto e = planner.estimate(tier, model, rtt, edge_q, cloud_q);
          if (e.feasible && e.total <= config.latency_budget)
            EXPECT_LE(pick.device_joules, e.device_joules + 1e-12)
                << model.name << " " << to_string(tier);
        }
      }
    }
  }
}

TEST(Offload, StaticPoliciesAndInfeasibleDevice) {
  const OffloadPlanner planner{OffloadPlanner::Config{}};
  const Duration rtt = Duration::from_millis_f(5.0);
  const Duration q = Duration::from_millis_f(1.0);
  const auto edge_pick = planner.choose(OffloadPolicy::kStaticEdge,
                                        ModelZoo::at("det-base"), rtt, q, q);
  EXPECT_EQ(edge_pick.tier, ExecutionTier::kEdge);
  EXPECT_TRUE(edge_pick.feasible);

  // caption-large does not fit the device NPU: the static-device policy
  // reports infeasibility, the adaptive ones route around it.
  const auto device_pick = planner.choose(
      OffloadPolicy::kStaticDevice, ModelZoo::at("caption-large"), rtt, q, q);
  EXPECT_FALSE(device_pick.feasible);
  const auto greedy = planner.choose(OffloadPolicy::kLatencyGreedy,
                                     ModelZoo::at("caption-large"), rtt, q, q);
  EXPECT_TRUE(greedy.feasible);
  EXPECT_NE(greedy.tier, ExecutionTier::kDevice);
}

// ------------------------------------------------------------------- energy

TEST(Energy, BreakdownSumsAndAmortises) {
  const InferenceEnergyModel energy{InferenceEnergyModel::Config{}};
  const auto& model = ModelZoo::at("det-base");
  const auto edge = AcceleratorProfile::edge_gpu();

  // 40 ms round trip: comfortably beyond the ~19 ms uplink airtime of
  // det-base at the default 75 Mbps, so an idle-wait phase exists.
  const auto one = energy.offloaded(model, edge, 40.0_ms, 1);
  EXPECT_GT(one.uplink_j, 0.0);
  EXPECT_GT(one.downlink_j, 0.0);
  EXPECT_GT(one.wait_j, 0.0);
  EXPECT_GT(one.server_compute_j, 0.0);
  EXPECT_DOUBLE_EQ(one.device_total(),
                   one.uplink_j + one.downlink_j + one.wait_j);
  EXPECT_DOUBLE_EQ(one.total(), one.device_total() + one.server_compute_j);

  const auto eight = energy.offloaded(model, edge, 40.0_ms, 8);
  EXPECT_LT(eight.server_compute_j, one.server_compute_j);  // amortised
  EXPECT_DOUBLE_EQ(eight.uplink_j, one.uplink_j);  // device side unchanged

  const auto local =
      energy.local(AcceleratorProfile::device_npu(), model);
  EXPECT_GT(local.device_compute_j, 0.0);
  EXPECT_DOUBLE_EQ(local.uplink_j + local.downlink_j + local.wait_j, 0.0);
}

// ------------------------------------------------------------ serving study

TEST(ServingStudy, DeterministicForFixedSeed) {
  ServingStudy::Config config;
  config.requests = 500;
  config.arrivals_per_second = 800.0;
  config.seed = 42;
  const auto a = ServingStudy::run(config);
  const auto b = ServingStudy::run(config);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.e2e_ms.mean(), b.e2e_ms.mean());
  EXPECT_EQ(a.e2e_samples_ms, b.e2e_samples_ms);

  config.seed = 43;
  const auto c = ServingStudy::run(config);
  EXPECT_NE(a.e2e_ms.mean(), c.e2e_ms.mean());
}

TEST(ServingStudy, ConservesRequests) {
  ServingStudy::Config config;
  config.requests = 800;
  config.arrivals_per_second = 8000.0;  // deliberately overloaded...
  config.batching.queue_capacity = 8;   // ...with a tiny queue
  config.seed = 7;
  const auto report = ServingStudy::run(config);
  EXPECT_EQ(report.completed + report.dropped, 800u);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_EQ(report.e2e_samples_ms.size(), report.completed);
  EXPECT_GE(report.batch_size.min(), 1.0);
  EXPECT_LE(report.batch_size.max(), double(config.batching.max_batch));
}

// ----------------------------------------------- inference-backed AR game

TEST(ArGameInference, InferenceDelayGatesConsistency) {
  apps::ArGameSession::Config config;
  config.frames = 4000;
  const auto perfect = [](Rng&) { return Duration::micros(100); };

  config.inference = [](Rng&) { return Duration::micros(200); };
  const auto fast = apps::ArGameSession{perfect, config}.run();
  EXPECT_DOUBLE_EQ(fast.consistent_frame_share, 1.0);

  config.inference = [](Rng&) { return Duration::from_millis_f(30.0); };
  const auto slow = apps::ArGameSession{perfect, config}.run();
  EXPECT_DOUBLE_EQ(slow.consistent_frame_share, 0.0);
  EXPECT_DOUBLE_EQ(slow.mis_registration_share, 1.0);
}

// -------------------------------------------------------------- scenarios

TEST(ServingReport, WithinMatchesNaiveCountForManyBudgets) {
  ServingStudy::Config config;
  config.requests = 600;
  config.arrivals_per_second = 800.0;
  config.seed = 41;
  const auto report = ServingStudy::run(config);
  ASSERT_GT(report.e2e_samples_ms.size(), 0u);
  // The sorted-pass within() must agree with a naive scan at every
  // probed budget, including degenerate ones.
  for (const double budget_ms : {0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 1e9}) {
    std::size_t naive = 0;
    for (const double ms : report.e2e_samples_ms)
      if (ms <= budget_ms) ++naive;
    EXPECT_DOUBLE_EQ(report.within(Duration::from_millis_f(budget_ms)),
                     double(naive) / double(report.e2e_samples_ms.size()))
        << "budget=" << budget_ms;
  }
}

TEST(ServingReport, WithinOnEmptyReportIsZero) {
  ServingStudy::Report report;
  EXPECT_EQ(report.within(Duration::from_millis_f(10.0)), 0.0);
}

TEST(ServingReport, WithinOnHandAssembledReportAfterFinalize) {
  // Reports built outside run() populate their sorted snapshot through
  // finalize(); within() then answers by binary search — the O(n) scan
  // path no longer exists.
  ServingStudy::Report report;
  report.e2e_samples_ms = {5.0, 1.0, 9.0, 3.0, 7.0};
  report.finalize();
  EXPECT_DOUBLE_EQ(report.within(Duration::from_millis_f(4.0)), 0.4);
  EXPECT_DOUBLE_EQ(report.within(Duration::from_millis_f(9.0)), 1.0);
  EXPECT_DOUBLE_EQ(report.within(Duration::from_millis_f(0.5)), 0.0);
  // Appending more samples re-stales the snapshot; finalize() refreshes.
  report.e2e_samples_ms.push_back(2.0);
  report.finalize();
  EXPECT_DOUBLE_EQ(report.within(Duration::from_millis_f(4.0)), 0.5);
}

TEST(EdgeAiScenarios, RegisteredAndListed) {
  core::ScenarioRegistry registry;
  core::register_paper_scenarios(registry);
  EXPECT_GE(registry.size(), 24u);
  for (const char* name : {"edge-inference-latency", "batching-ablation",
                           "offload-policy", "energy-inference"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

TEST(EdgeAiScenarios, DeterministicForFixedSeed) {
  core::ScenarioRegistry registry;
  core::register_paper_scenarios(registry);
  for (const char* name : {"edge-inference-latency", "batching-ablation",
                           "offload-policy", "energy-inference"}) {
    const core::Scenario* s = registry.find(name);
    ASSERT_NE(s, nullptr) << name;
    core::RunContext ctx;
    ctx.seed = 5;
    ctx.threads = 2;
    EXPECT_EQ(render(*s, s->run(ctx)), render(*s, s->run(ctx))) << name;
  }
}

TEST(EdgeAiScenarios, SeedChangesTheResult) {
  core::ScenarioRegistry registry;
  core::register_paper_scenarios(registry);
  for (const char* name : {"edge-inference-latency", "batching-ablation",
                           "offload-policy", "energy-inference"}) {
    const core::Scenario* s = registry.find(name);
    ASSERT_NE(s, nullptr) << name;
    core::RunContext a;
    a.seed = 5;
    core::RunContext b;
    b.seed = 6;
    EXPECT_NE(render(*s, s->run(a)), render(*s, s->run(b))) << name;
  }
}

TEST(EdgeAiScenarios, ThreadCountDoesNotChangeResults) {
  core::ScenarioRegistry registry;
  core::register_paper_scenarios(registry);
  for (const char* name : {"edge-inference-latency", "batching-ablation",
                           "offload-policy", "energy-inference"}) {
    const core::Scenario* s = registry.find(name);
    ASSERT_NE(s, nullptr) << name;
    core::RunContext serial;
    serial.seed = 11;
    serial.threads = 1;
    core::RunContext wide = serial;
    wide.threads = 8;
    EXPECT_EQ(render(*s, s->run(serial)), render(*s, s->run(wide))) << name;
  }
}

}  // namespace
}  // namespace sixg::edgeai

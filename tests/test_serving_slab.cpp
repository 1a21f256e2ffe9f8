// Slab/legacy equivalence: the slab-backed ServingStudy must reproduce
// the pre-refactor closure-based engine bit for bit. The reference below
// is a faithful retained copy of the legacy run() — nested capturing
// lambdas and a per-request std::function completion handler — driven by
// the same seed derivation salts. The server has one submission path, so
// the reference keeps its handlers itself: a vector indexed by request
// id, which the server's completion sink invokes. Any drift in RNG draw
// order, event ordering or floating-point accumulation shows up as a hard
// EXPECT on raw doubles.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "edgeai/serving.hpp"
#include "netsim/simulator.hpp"
#include "stats/distributions.hpp"

namespace sixg::edgeai {
namespace {

struct ReferenceReport {
  stats::Summary e2e_ms;
  stats::Summary network_ms;
  stats::Summary queue_ms;
  stats::Summary service_ms;
  stats::Summary batch_size;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t batches = 0;
  double throughput_per_s = 0.0;
  EnergyBreakdown mean_energy;
  std::vector<double> e2e_samples_ms;
};

/// The legacy ServingStudy::run, verbatim modulo the report type and the
/// handler table: three heap-allocated closures per request and a
/// type-erased per-request completion handler.
ReferenceReport reference_run(const ServingStudy::Config& config) {
  netsim::Simulator sim{config.seed};
  AcceleratorServer server{sim, config.accelerator, config.model,
                           config.batching};
  std::vector<std::function<void(const AcceleratorServer::Completion&)>>
      handlers(config.requests);
  server.set_completion_sink(
      [&handlers](std::uint32_t id, std::uint64_t,
                  const AcceleratorServer::Completion& c) { handlers[id](c); });
  const InferenceEnergyModel energy{config.energy};
  const bool networked = static_cast<bool>(config.uplink);
  const Duration up_airtime =
      networked ? energy.uplink_airtime(config.model) : Duration{};
  const Duration down_airtime =
      networked ? energy.downlink_airtime(config.model) : Duration{};

  Rng arrival_rng{derive_seed(config.seed, 0xa221)};
  Rng uplink_rng{derive_seed(config.seed, 0x0b11)};
  Rng downlink_rng{derive_seed(config.seed, 0xd011)};

  ReferenceReport report;
  report.e2e_samples_ms.reserve(config.requests);
  EnergyBreakdown energy_sum;
  TimePoint makespan;

  const stats::ShiftedExponential interarrival{
      0.0, 1.0 / config.arrivals_per_second};

  Duration at;
  for (std::uint32_t i = 0; i < config.requests; ++i) {
    at += Duration::from_seconds_f(interarrival.sample(arrival_rng));
    sim.schedule_at(TimePoint{} + at, [&, id = i] {
      const TimePoint device_start = sim.now();
      const Duration up =
          networked ? config.uplink(uplink_rng) + up_airtime : Duration{};
      sim.schedule_after(up, [&, id, device_start, up] {
        handlers[id] = [&, device_start,
                        up](const AcceleratorServer::Completion& c) {
          const Duration down =
              config.downlink ? config.downlink(downlink_rng) + down_airtime
                              : Duration{};
          sim.schedule_after(down, [&, device_start, up, down, c] {
            const Duration e2e = sim.now() - device_start;
            report.e2e_ms.add(e2e.ms());
            report.e2e_samples_ms.push_back(e2e.ms());
            report.network_ms.add((up + down).ms());
            report.queue_ms.add(c.queue_wait().ms());
            report.service_ms.add(c.service().ms());
            report.batch_size.add(double(c.batch_size));
            if (networked) {
              energy_sum += energy.offloaded(config.model,
                                             config.accelerator, e2e,
                                             c.batch_size);
            } else {
              EnergyBreakdown local;
              local.device_compute_j =
                  config.accelerator.batch_joules(config.model,
                                                  c.batch_size) /
                  double(c.batch_size);
              energy_sum += local;
            }
            if (sim.now() > makespan) makespan = sim.now();
          });
        };
        (void)server.submit(id);
      });
    });
  }

  sim.run();

  report.completed = server.completed();
  report.dropped = server.dropped();
  report.batches = server.batches_launched();
  if (report.completed > 0) {
    energy_sum /= double(report.completed);
    report.mean_energy = energy_sum;
  }
  const double makespan_sec = (makespan - TimePoint{}).sec();
  if (makespan_sec > 0.0)
    report.throughput_per_s = double(report.completed) / makespan_sec;
  return report;
}

NetLeg::Fn synthetic_hop(double shift_s, double mean_s) {
  const stats::ShiftedExponential hop{shift_s, mean_s};
  return [hop](Rng& rng) { return Duration::from_seconds_f(hop.sample(rng)); };
}

ServingStudy::Config make_config(std::uint64_t seed, bool networked,
                                 Duration window) {
  ServingStudy::Config config;
  config.model = ModelZoo::at("det-base");
  config.accelerator = AcceleratorProfile::edge_gpu();
  config.batching.max_batch = 8;
  config.batching.batch_window = window;
  config.batching.queue_capacity = 24;  // small: drops are exercised too
  config.arrivals_per_second = 4500.0;  // past one server's capacity
  config.requests = 1500;
  config.seed = seed;
  if (networked) {
    config.uplink = synthetic_hop(0.4e-3, 0.8e-3);
    config.downlink = synthetic_hop(0.3e-3, 0.6e-3);
  }
  return config;
}

void expect_summary_eq(const stats::Summary& a, const stats::Summary& b,
                       const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.stddev(), b.stddev()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void expect_bit_equal(const ServingStudy::Report& slab,
                      const ReferenceReport& ref) {
  EXPECT_EQ(slab.completed, ref.completed);
  EXPECT_EQ(slab.dropped, ref.dropped);
  EXPECT_EQ(slab.batches, ref.batches);
  ASSERT_EQ(slab.e2e_samples_ms.size(), ref.e2e_samples_ms.size());
  // Raw doubles, element for element, completion order included.
  EXPECT_EQ(slab.e2e_samples_ms, ref.e2e_samples_ms);
  expect_summary_eq(slab.e2e_ms, ref.e2e_ms, "e2e");
  expect_summary_eq(slab.network_ms, ref.network_ms, "network");
  expect_summary_eq(slab.queue_ms, ref.queue_ms, "queue");
  expect_summary_eq(slab.service_ms, ref.service_ms, "service");
  expect_summary_eq(slab.batch_size, ref.batch_size, "batch");
  EXPECT_EQ(slab.throughput_per_s, ref.throughput_per_s);
  EXPECT_EQ(slab.mean_energy.uplink_j, ref.mean_energy.uplink_j);
  EXPECT_EQ(slab.mean_energy.downlink_j, ref.mean_energy.downlink_j);
  EXPECT_EQ(slab.mean_energy.wait_j, ref.mean_energy.wait_j);
  EXPECT_EQ(slab.mean_energy.device_compute_j,
            ref.mean_energy.device_compute_j);
  EXPECT_EQ(slab.mean_energy.server_compute_j,
            ref.mean_energy.server_compute_j);
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 17, 42, 1234, 0xdecafbad};

TEST(ServingSlabEquivalence, BitEqualToLegacyReference) {
  for (const std::uint64_t seed : kSeeds) {
    for (const bool networked : {false, true}) {
      for (const double window_us : {0.0, 50.0}) {
        const auto config = make_config(
            seed, networked, Duration::from_micros_f(window_us));
        const auto slab = ServingStudy::run(config);
        const auto ref = reference_run(config);
        SCOPED_TRACE(testing::Message()
                     << "seed=" << seed << " networked=" << networked
                     << " window_us=" << window_us);
        EXPECT_GT(slab.dropped, 0u);  // the config must exercise drops
        expect_bit_equal(slab, ref);
      }
    }
  }
}

TEST(ServingSlabEquivalence, StreamingReportMatchesRetainedAggregates) {
  for (const bool networked : {false, true}) {
    auto config = make_config(7, networked, Duration::from_micros_f(50.0));
    config.requests = 3000;
    const auto retained = ServingStudy::run(config);
    config.retain_samples = false;
    const auto streamed = ServingStudy::run(config);

    EXPECT_TRUE(streamed.e2e_samples_ms.empty());
    EXPECT_EQ(streamed.completed, retained.completed);
    EXPECT_EQ(streamed.dropped, retained.dropped);
    EXPECT_EQ(streamed.e2e_ms.mean(), retained.e2e_ms.mean());
    EXPECT_EQ(streamed.e2e_ms.count(), retained.e2e_ms.count());
    ASSERT_TRUE(streamed.e2e_hist.has_value());
    EXPECT_EQ(streamed.e2e_hist->count(), streamed.completed);
    // Below the reservoir cap the quantiles are exact: identical too.
    EXPECT_EQ(streamed.e2e_q.quantile(0.99), retained.e2e_q.quantile(0.99));
    // Streamed within() answers from the histogram: approximate at bin
    // granularity (bin width here: 0.5 ms over [0, 250)).
    const Duration budget = Duration::from_millis_f(20.0);
    EXPECT_NEAR(streamed.within(budget), retained.within(budget), 0.02);
  }
}

TEST(ServingSlabEquivalence, ScenarioScaleConfigsStayBitEqual) {
  // The exact shapes the registered scenarios run (no drops, windowed
  // batching, networked), at reduced request counts.
  for (const std::uint64_t seed : {9ull, 77ull}) {
    ServingStudy::Config config;
    config.model = ModelZoo::at("det-base");
    config.accelerator = AcceleratorProfile::edge_gpu();
    config.batching.max_batch = 8;
    config.batching.batch_window = Duration::from_millis_f(2.0);
    config.arrivals_per_second = 300.0;
    config.requests = 800;
    config.seed = seed;
    config.uplink = synthetic_hop(1.0e-3, 2.0e-3);
    config.downlink = synthetic_hop(1.0e-3, 2.0e-3);
    const auto slab = ServingStudy::run(config);
    const auto ref = reference_run(config);
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    EXPECT_EQ(slab.dropped, 0u);
    expect_bit_equal(slab, ref);
  }
}

}  // namespace
}  // namespace sixg::edgeai

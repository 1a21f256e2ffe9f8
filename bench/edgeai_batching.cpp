// google-benchmark microbenchmarks of the edge-AI serving hot path:
// the accelerator server's submit -> dynamic-batch dispatch -> complete
// cycle on the event kernel, the roofline service-time estimate, and a
// full ServingStudy replication. These guard the cost of the inner loop
// the batching/offload scenarios execute hundreds of thousands of times.

#include <benchmark/benchmark.h>

#include "edgeai/accelerator.hpp"
#include "edgeai/model.hpp"
#include "edgeai/serving.hpp"
#include "netsim/simulator.hpp"

namespace {

using namespace sixg;

// The full queueing cycle: N requests arrive with a fixed spacing and
// drain through dynamic batching. Args: max batch size.
void BM_AcceleratorServerCycle(benchmark::State& state) {
  const auto max_batch = std::uint32_t(state.range(0));
  constexpr std::size_t kRequests = 4096;
  for (auto _ : state) {
    netsim::Simulator sim;
    edgeai::AcceleratorServer server{
        sim, edgeai::AcceleratorProfile::edge_gpu(),
        edgeai::ModelZoo::at("det-base"),
        {.max_batch = max_batch,
         .batch_window = Duration::from_millis_f(1.0),
         .queue_capacity = kRequests}};
    std::uint64_t done = 0;
    server.set_completion_sink(
        [&done](std::uint32_t, std::uint64_t, const auto&) { ++done; });
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      sim.schedule_after(Duration::micros(std::int64_t(i) * 400),
                         [&server, i] { (void)server.submit(i); });
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(kRequests));
}
BENCHMARK(BM_AcceleratorServerCycle)->Arg(1)->Arg(8)->Arg(32);

void BM_ServiceTimeEstimate(benchmark::State& state) {
  const auto acc = edgeai::AcceleratorProfile::edge_gpu();
  const auto& model = edgeai::ModelZoo::at("det-base");
  std::uint32_t batch = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.service_time(model, batch));
    batch = batch % 32 + 1;
  }
}
BENCHMARK(BM_ServiceTimeEstimate);

void BM_ServingStudyReplication(benchmark::State& state) {
  for (auto _ : state) {
    edgeai::ServingStudy::Config config;
    config.arrivals_per_second = 900.0;
    config.requests = 1000;
    config.seed = 7;
    benchmark::DoNotOptimize(edgeai::ServingStudy::run(config));
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_ServingStudyReplication);

}  // namespace

BENCHMARK_MAIN();

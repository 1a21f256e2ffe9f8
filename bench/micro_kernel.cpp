// google-benchmark microbenchmarks of the simulator substrate itself:
// event-queue throughput, policy routing, latency sampling, rule-table
// lookups. These guard the performance envelope that makes the
// campaign-scale studies (hundreds of thousands of samples) cheap.

#include <benchmark/benchmark.h>

#include "fivegcore/rules.hpp"
#include "geo/coords.hpp"
#include "netsim/simulator.hpp"
#include "radio/link_model.hpp"
#include "radio/profile.hpp"
#include "stats/distributions.hpp"
#include "topo/backbone.hpp"
#include "topo/europe.hpp"

namespace {

using namespace sixg;

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto events = std::size_t(state.range(0));
  for (auto _ : state) {
    netsim::Simulator sim;
    std::uint64_t counter = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_after(Duration::micros(std::int64_t(i % 997)),
                         [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(events));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PolicyRouting(benchmark::State& state) {
  const auto europe = topo::build_europe();
  for (auto _ : state) {
    const auto path = europe.net.find_path(europe.mobile_ue,
                                           europe.university_probe);
    benchmark::DoNotOptimize(path);
  }
}
BENCHMARK(BM_PolicyRouting);

void BM_BackboneRouting(benchmark::State& state) {
  const auto backbone = topo::build_backbone(int(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& hosts = backbone.stub_hosts;
    const auto path = backbone.net.find_path(hosts[i % hosts.size()],
                                             hosts[(i * 7 + 3) % hosts.size()]);
    benchmark::DoNotOptimize(path);
    ++i;
  }
}
BENCHMARK(BM_BackboneRouting)->Arg(1)->Arg(4);

void BM_AsRouteComputation(benchmark::State& state) {
  const auto europe = topo::build_europe();
  for (auto _ : state) {
    const auto routes = europe.net.compute_as_routes_to(europe.as_uninet);
    benchmark::DoNotOptimize(routes);
  }
}
BENCHMARK(BM_AsRouteComputation);

void BM_PathRttSample(benchmark::State& state) {
  const auto europe = topo::build_europe();
  const auto path =
      europe.net.find_path(europe.mobile_ue, europe.university_probe);
  Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(europe.net.sample_rtt(path, rng));
  }
}
BENCHMARK(BM_PathRttSample);

void BM_RadioRttSample(benchmark::State& state) {
  const radio::RadioLinkModel model{radio::AccessProfile::fiveg_nsa()};
  const radio::CellConditions conditions{.load = 0.5,
                                         .quality = 0.7,
                                         .bler = 0.1,
                                         .spike_rate = 0.02};
  Rng rng{2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample_rtt(conditions, rng));
  }
}
BENCHMARK(BM_RadioRttSample);

void BM_RuleLookupLinear(benchmark::State& state) {
  core5g::RuleTable table{core5g::RuleTable::Mode::kLinearScan};
  const auto rules = std::uint32_t(state.range(0));
  for (std::uint32_t i = 0; i < rules; ++i)
    (void)table.add_rule(core5g::PdrRule{i, 1000 + i, i / 4, int(i), 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1000 + rules - 1));
  }
}
BENCHMARK(BM_RuleLookupLinear)->Arg(64)->Arg(1024)->Arg(2048);

void BM_RuleLookupContextAware(benchmark::State& state) {
  core5g::RuleTable table{core5g::RuleTable::Mode::kContextAware};
  const auto rules = std::uint32_t(state.range(0));
  for (std::uint32_t i = 0; i < rules; ++i)
    (void)table.add_rule(core5g::PdrRule{i, 1000 + i, i / 4, int(i), 0});
  table.prioritise_flow(1000 + rules - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(1000 + rules - 1));
  }
}
BENCHMARK(BM_RuleLookupContextAware)->Arg(64)->Arg(1024)->Arg(2048);

void BM_LognormalSample(benchmark::State& state) {
  const stats::Lognormal dist = stats::Lognormal::from_median(10.0, 0.4);
  Rng rng{3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.sample(rng));
  }
}
BENCHMARK(BM_LognormalSample);

void BM_HaversineDistance(benchmark::State& state) {
  const geo::LatLon a{46.62, 14.31};
  const geo::LatLon b{48.21, 16.37};
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::distance_km(a, b));
  }
}
BENCHMARK(BM_HaversineDistance);

}  // namespace

BENCHMARK_MAIN();

// Reproduces the paper's Klagenfurt drive-test campaign end to end:
// builds the central-European topology, synthesises drive traces over the
// 6x7 sector grid, measures per-cell RTL through the 5G access and the
// carrier's detoured Internet path, and prints the Fig. 1/2/3 grids.
//
// Usage: measurement_campaign [seed]

#include <cstdio>
#include <cstdlib>

#include "core/scenario.hpp"
#include "measurement/grid_campaign.hpp"
#include "netsim/parallel.hpp"

int main(int argc, char** argv) {
  using namespace sixg;

  const core::KlagenfurtStudy study;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : study.campaign_config().seed;

  const netsim::ParallelRunner runner;
  const meas::GridReport report =
      study.campaign(study.access_profile(), seed).run(runner);

  std::printf("Measurement counts per cell ('-' = not traversed):\n%s\n",
              report.count_table().str().c_str());
  std::printf("Mean round-trip latency per cell, ms (0.0 = <%u samples):\n%s\n",
              report.min_samples(), report.mean_table().str().c_str());
  std::printf("Std deviation per cell, ms:\n%s\n",
              report.stddev_table().str().c_str());

  const auto min_mean = report.min_mean();
  const auto max_mean = report.max_mean();
  const auto min_sd = report.min_stddev();
  const auto max_sd = report.max_stddev();
  std::printf("traversed cells: %d of %d, suppressed (<%u samples): %d\n",
              report.traversed_count(), study.grid().cell_count(),
              report.min_samples(), report.suppressed_count());
  std::printf("mean RTL range: %.1f ms (%s) .. %.1f ms (%s)\n", min_mean.value,
              min_mean.label.c_str(), max_mean.value, max_mean.label.c_str());
  std::printf("stddev range:  %.1f ms (%s) .. %.1f ms (%s)\n", min_sd.value,
              min_sd.label.c_str(), max_sd.value, max_sd.label.c_str());
  return 0;
}

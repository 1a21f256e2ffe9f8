/// @file whatif.hpp — what-if engine applying the Section V-A local-peering
/// recommendation to the measured scenario and quantifying the improvement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "radio/conditions.hpp"

namespace sixg::core {

/// Before/after effect of the recommendation on one measured metric.
struct WhatIfResult {
  std::string metric;      ///< what was measured
  double before = 0.0;
  double after = 0.0;
  std::string unit;
  [[nodiscard]] double improvement_factor() const {
    return after > 0.0 ? before / after : 0.0;
  }
};

/// Applies the local-peering recommendation (Section V-A) to the calibrated
/// Klagenfurt world and quantifies the improvement — turning the paper's
/// literature-derived claim into reproducible simulation outputs. The UPF
/// (V-B) and control-plane (V-C) recommendations are the `ablation-upf`
/// and `ablation-cpf` scenarios.
class WhatIfEngine {
 public:
  struct Config {
    std::uint32_t samples = 3000;
    std::uint64_t seed = 0xbee5;
    /// Radio conditions of the evaluation cell (moderate urban).
    radio::CellConditions conditions{.load = 0.35,
                                     .quality = 0.85,
                                     .bler = 0.05,
                                     .spike_rate = 0.01};
  };

  explicit WhatIfEngine(Config config) : config_(config) {}
  WhatIfEngine() : WhatIfEngine(Config{}) {}

  /// V-A: rebuild the topology with local breakout + local peering and
  /// compare hops, routed distance and RTT of the UE -> probe path.
  [[nodiscard]] std::vector<WhatIfResult> local_peering() const;

 private:
  Config config_;
};

}  // namespace sixg::core

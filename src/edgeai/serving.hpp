/// @file serving.hpp — end-to-end inference-serving simulation: an open
/// request stream crosses a sampled network path, queues at an
/// AcceleratorServer with dynamic batching, and returns; the study
/// reports the latency decomposition, batching behaviour and per-request
/// energy. One ServingStudy run = one Simulator timeline = one seed.
///
/// A ServingStudy run is a one-server run of the fleet engine
/// (fleet.cpp; see docs/ARCHITECTURE.md "Serving hot path"): the same
/// slab-backed request lifecycle with zero heap allocations per request
/// in steady state, seeded with this study's own stream salts. Arrival,
/// uplink and downlink streams are independent; uplink draws happen in
/// arrival order, downlink draws in completion order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "edgeai/accelerator.hpp"
#include "edgeai/energy.hpp"
#include "edgeai/model.hpp"
#include "edgeai/net_leg.hpp"
#include "stats/histogram.hpp"
#include "stats/reservoir.hpp"
#include "stats/summary.hpp"

namespace sixg::edgeai {

/// Trace-style modulation of the Poisson arrival process (a
/// FleetStudy::Config knob): a diurnal curve plus periodic flash-crowd
/// bursts, layered on chained-arrival generation by scaling each
/// interarrival draw with the instantaneous rate multiplier. Inactive by
/// default (multiplier identically 1), in which case the draw passes
/// through untouched and the run stays byte-identical to a build without
/// the feature.
///
/// The diurnal curve is a piecewise-linear triangle wave — trough (1 -
/// amplitude) at phase 0, peak (1 + amplitude) at half period — on
/// purpose: it needs no libm, so the modulated trajectory is exactly
/// reproducible everywhere the unmodulated one is. Flash crowds multiply
/// the rate by `flash_multiplier` for `flash_duration` at the start of
/// every `flash_every` interval.
struct ArrivalShape {
  double diurnal_amplitude = 0.0;  ///< [0, 1); 0 disables the curve
  Duration diurnal_period;         ///< one simulated "day"
  double flash_multiplier = 1.0;   ///< >= 1; 1 disables the bursts
  Duration flash_every;            ///< burst cadence
  Duration flash_duration;         ///< burst length, < flash_every

  [[nodiscard]] bool active() const {
    return (diurnal_amplitude > 0.0 && !diurnal_period.is_zero()) ||
           (flash_multiplier != 1.0 && !flash_every.is_zero() &&
            !flash_duration.is_zero());
  }

  /// Instantaneous arrival-rate multiplier at `since_start` into the run.
  [[nodiscard]] double rate_multiplier(Duration since_start) const;
};

/// Runs one inference-serving workload on one simulator timeline.
class ServingStudy {
 public:
  struct Config {
    ModelProfile model = ModelZoo::at("det-base");
    AcceleratorProfile accelerator = AcceleratorProfile::edge_gpu();
    AcceleratorServer::BatchingConfig batching;
    InferenceEnergyModel::Config energy;

    double arrivals_per_second = 400.0;  ///< Poisson open-loop offered load
    std::uint32_t requests = 2000;       ///< arrivals to generate
    /// One-way network traversals (radio + wired path); a null leg means
    /// the hop does not exist (on-device serving). Both set (offloaded
    /// serving: latency adds the hops, energy bills the radio) or both
    /// null — run() asserts the pairing, since latency and energy
    /// accounting both key on it. Structured legs (NetLeg::wired /
    /// radio_then_path / path_then_radio) ride the vectorized batch
    /// sampling lane; opaque callables sample scalar, bit-identically.
    NetLeg uplink;    ///< request path towards the server
    NetLeg downlink;  ///< response path back to the device
    std::uint64_t seed = 1;

    /// Retain the raw per-request end-to-end samples (exact within(),
    /// empirical samplers) — O(requests) report memory. Disable for
    /// million-request runs: the report then streams into the histogram
    /// and the capped reservoir, O(bins + cap) memory.
    bool retain_samples = true;
  };

  struct Report {
    stats::Summary e2e_ms;      ///< device-to-device, completed requests
    /// End-to-end quantiles: exact order statistics up to the reservoir
    /// cap, reservoir-sampled beyond it (own RNG stream, seed-derived).
    stats::ReservoirQuantile e2e_q;
    stats::Summary network_ms;  ///< uplink + downlink + airtime share
    stats::Summary queue_ms;    ///< accelerator queue wait
    stats::Summary service_ms;  ///< batch execution share
    stats::Summary batch_size;  ///< batch each completed request rode in

    /// Streaming end-to-end distribution: 500 bins over [0, 250) ms;
    /// engaged by run().
    std::optional<stats::Histogram> e2e_hist;

    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;   ///< bounded-queue rejections
    std::uint64_t batches = 0;
    double throughput_per_s = 0.0;  ///< completed / makespan
    EnergyBreakdown mean_energy;    ///< per completed request

    /// Raw per-request end-to-end samples (ms), in completion order —
    /// feeds empirical samplers (e.g. the AR frame loop). Empty when the
    /// run streamed (Config::retain_samples == false).
    std::vector<double> e2e_samples_ms;

    /// Share of completed requests within `budget`. With retained
    /// samples this is exact: one binary search over the finalize()d
    /// sorted snapshot. Streamed reports answer from the histogram CDF
    /// (linear interpolation inside the containing bin; budgets beyond
    /// the histogram range clamp to the range end — a lower bound, since
    /// overflow samples are only known to exceed the range). Pure
    /// read: safe to call concurrently.
    [[nodiscard]] double within(Duration budget) const;

    /// (Re)build the sorted snapshot within() searches. run() calls
    /// this; hand-assembled reports must call it after filling
    /// e2e_samples_ms — within() asserts the snapshot is current.
    void finalize();

   private:
    std::vector<double> sorted_e2e_ms_;  ///< sorted snapshot, finalize()
  };

  /// Pure function of the config (determinism contract): same config ->
  /// same report, independent of wall clock and thread count.
  [[nodiscard]] static Report run(const Config& config);
};

}  // namespace sixg::edgeai

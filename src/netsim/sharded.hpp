/// @file sharded.hpp — conservative-window parallel simulation: one run
/// partitioned into spatial shards, each owning its own single-threaded
/// Simulator timeline, synchronized at fixed time-window barriers sized
/// by the minimum cross-shard latency (the lookahead).
///
/// The determinism contract extends to the sharded engine: for a FIXED
/// shard count, the output is byte-identical at any worker-thread count.
/// Three properties carry it:
///   1. Within a window, shards share no mutable state — each shard's
///      Simulator runs its own (when, seq) total order.
///   2. Cross-shard messages travel through per-(src, dst) single-writer
///      mailboxes: during a window only the one worker executing shard
///      `src` appends to src's outboxes, so append order is the source
///      timeline's event order, independent of scheduling.
///   3. Each destination shard's inbound mail is drained by the worker
///      that owns it, just before that shard runs the window, in a fixed
///      (dst, src, append-order) total order, so the destination kernel
///      assigns the same sequence numbers every run. The drain reads the
///      buffer the previous window wrote; outboxes are double-buffered
///      by window parity, so sources append to the other buffer while
///      the drain runs.
/// Shard k is statically bound to worker k % workers (the coordinating
/// thread is worker 0), and the window barrier is an atomic epoch that
/// the coordinator bumps and every worker checks back in from; it spins
/// for a bounded time, then parks.
///
/// Causality is conservative (no rollback): a message posted during the
/// window ending at `horizon` must not be scheduled before `horizon`.
/// Callers guarantee it by sizing the window at most the minimum
/// cross-shard latency (see topo::CompiledPath::min_latency); post()
/// asserts the bound on every message.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "netsim/simulator.hpp"

namespace sixg::obs {
class Scope;
}  // namespace sixg::obs

namespace sixg::netsim {

/// Stream salt for shard-local seed derivation (see shard_seed).
inline constexpr std::uint64_t kShardStreamSalt = 0x5aa2d;

/// Seed of shard `shard` in a sharded run seeded with `base`. Shard 0
/// keeps the base seed itself, so a 1-shard run (and shard 0 of any run)
/// consumes exactly the streams the serial engine would — the byte-
/// equivalence anchor. Shards >= 1 derive through a dedicated salt
/// stream, disjoint from campaign replication streams (which derive as
/// derive_seed(base, derive_seed(campaign_salt, index))); the
/// non-collision is asserted across seeds in tests/test_campaign.cpp.
[[nodiscard]] constexpr std::uint64_t shard_seed(std::uint64_t base,
                                                 std::uint32_t shard) {
  return shard == 0 ? base
                    : derive_seed(derive_seed(base, kShardStreamSalt), shard);
}

/// A fleet of Simulator timelines advancing in conservative time windows.
///
/// Usage: construct with a shard count and a window no larger than the
/// minimum cross-shard link latency, seed each shard's initial events via
/// shard(k).schedule_at (or post() before run()), then run(). Model code
/// executing on shard `src`'s timeline sends work to shard `dst` with
/// post(src, dst, at, action); the action executes on dst's timeline at
/// `at`, which must be at or after the end of the posting window.
class ShardedSimulator {
 public:
  struct Config {
    std::uint32_t shards = 1;
    /// Barrier spacing — the conservative lookahead. Must be positive
    /// and no larger than the minimum latency of any cross-shard
    /// interaction (post() asserts each message against it).
    Duration window = Duration::millis(1);
    std::uint64_t seed = 1;
    /// Worker threads executing shards within a window; 0 = hardware
    /// concurrency. Clamped to the shard count. Never changes results.
    unsigned workers = 0;
  };

  explicit ShardedSimulator(const Config& config);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const {
    return std::uint32_t(shards_.size());
  }
  [[nodiscard]] Duration window() const { return config_.window; }
  [[nodiscard]] unsigned worker_count() const { return workers_; }

  /// Shard k's own timeline, seeded with shard_seed(config.seed, k).
  /// Safe to touch from the owning shard's actions during a window, and
  /// from the coordinating thread between runs.
  [[nodiscard]] Simulator& shard(std::uint32_t k) { return shards_[k]->sim; }

  /// Barrier clock: the start of the window run() would execute next.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Send `action` to shard `dst`'s timeline, to execute at absolute
  /// time `at`. Callable from shard `src`'s executing actions (worker
  /// threads) and from the coordinating thread outside a window. While a
  /// window is executing, `at` must be at or after that window's end —
  /// the conservative causality bound; src == dst is a contract error
  /// (local work belongs on shard(src) directly).
  void post(std::uint32_t src, std::uint32_t dst, TimePoint at,
            Simulator::Action action);

  /// Run windows until every shard's timeline drains and every mailbox
  /// is empty. Like Simulator::run, a workload that re-arms forever
  /// (periodic timers) never returns.
  void run();

  /// Run whole windows while now() < horizon, clamping the final window
  /// at `horizon`; the barrier clock lands exactly on the horizon.
  void run_until(TimePoint horizon);

  /// Windows executed so far. During a window (i.e. from inside an
  /// executing action) this is the index of the current window.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// Cross-shard messages delivered so far (counted when the window
  /// that drains them starts).
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  /// Events processed across all shards.
  [[nodiscard]] std::uint64_t processed_events() const;

 private:
  struct Message {
    TimePoint at;
    Simulator::Action action;
  };

  /// One shard: its timeline plus its outboxes, one per destination in
  /// each of two window-parity buffers. Inside window w only the worker
  /// bound to this shard appends, to buffer w & 1; during window w + 1
  /// each destination's owning worker drains its box of that buffer
  /// while this shard appends to the other one. `posted` counts the
  /// messages in each buffer, so the coordinator reads one counter per
  /// shard instead of every box.
  struct Shard {
    Simulator sim;
    std::array<std::vector<std::vector<Message>>, 2> outbox;
    std::array<std::uint64_t, 2> posted{};
    Shard(std::uint64_t seed, std::uint32_t shards) : sim(seed) {
      for (auto& buffer : outbox) buffer.resize(shards);
    }
  };

  struct Pool;  ///< persistent epoch-barrier worker pool (sharded.cpp)

  [[nodiscard]] bool has_work() const;
  /// Count the messages the coming window delivers, then run the window
  /// on every worker and advance the barrier clock.
  void step_window(TimePoint horizon);
  /// Schedule shard `dst`'s inbound mail from the previous window.
  void drain_into(std::uint32_t dst);
  /// Drain and run, to horizon_, every shard bound to `worker`.
  void run_bound(unsigned worker);

  Config config_;
  unsigned workers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  TimePoint now_;
  TimePoint horizon_;        ///< end of the executing window
  bool running_ = false;     ///< a window is executing right now
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
  std::unique_ptr<Pool> pool_;  ///< null when one worker runs every shard

  /// Observability: when probes are enabled, the coordinator latches
  /// these before each window's epoch bump (the release bump and the
  /// workers' acquire make them visible). Shard k's probes land in
  /// shard k's scope whichever worker it is bound to — the per-shard-slot
  /// rule the determinism contract needs.
  bool bind_scopes_ = false;   ///< bind per-shard obs scopes this window
  bool profile_ = false;       ///< wall-clock worker profiling this window
  std::vector<obs::Scope*> scopes_;  ///< shard scope per shard, lazy
};

}  // namespace sixg::netsim

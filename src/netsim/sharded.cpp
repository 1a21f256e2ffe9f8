#include "netsim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/assert.hpp"
#include "obs/obs.hpp"

namespace sixg::netsim {

namespace {
[[nodiscard]] std::uint64_t steady_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// How long a barrier participant waits actively before it parks. A
/// window's work is tens of microseconds, so an active wait of this
/// length catches the next epoch without a futex round trip; the bound
/// is wall time, not an iteration count, so an oversubscribed host
/// (ctest -j, a threaded `--run all`) loses at most this much of a core
/// per wait.
constexpr std::uint64_t kSpinNs = 50'000;
/// The first part of the active wait spins on pause alone; after it,
/// each round also yields, so a descheduled participant that shares the
/// core gets to finish its shards instead of waiting out the spin.
constexpr std::uint64_t kPauseNs = 4'000;

/// Spin-then-park wait: returns the first value of `word` (loaded with
/// acquire ordering) for which `done` holds. Spins for up to kSpinNs,
/// then blocks in std::atomic::wait; the writer side notifies.
template <typename Done>
std::uint32_t await(const std::atomic<std::uint32_t>& word, Done done) {
  std::uint32_t v = word.load(std::memory_order_acquire);
  if (done(v)) return v;
  const std::uint64_t start = steady_ns();
  for (unsigned i = 1;; ++i) {
    cpu_relax();
    v = word.load(std::memory_order_acquire);
    if (done(v)) return v;
    if (i % 16 != 0) continue;
    const std::uint64_t spent = steady_ns() - start;
    if (spent >= kSpinNs) break;
    if (spent >= kPauseNs) std::this_thread::yield();
  }
  for (;;) {
    word.wait(v, std::memory_order_acquire);
    v = word.load(std::memory_order_acquire);
    if (done(v)) return v;
  }
}
}  // namespace

/// Persistent worker pool with an atomic-epoch barrier, one epoch per
/// window. The coordinator (worker 0) stores `remaining`, then bumps
/// `epoch` with release ordering; each worker acquires the new epoch,
/// runs its statically bound shards, and checks in with an acq_rel
/// fetch_sub on `remaining`. The coordinator runs its own shards, then
/// acquires `remaining == 0`. That chain — shard writes, release by the
/// check-in, acquire by the coordinator, release by the next bump,
/// acquire by every worker — is the happens-before edge that makes one
/// window's outbox appends visible to the next window's drains.
struct ShardedSimulator::Pool {
  explicit Pool(ShardedSimulator& owner, unsigned workers)
      : sharded(owner), stats(workers) {
    if (obs::kProbesCompiled && obs::metrics_on()) {
      pool_id = obs::Runtime::instance().next_pool_id();
    }
    threads.reserve(workers - 1);
    for (unsigned t = 0; t + 1 < workers; ++t) {
      threads.emplace_back([this, self = t + 1] { worker_loop(self); });
    }
  }

  ~Pool() {
    shutdown = true;  // published by the release bump below
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    for (auto& t : threads) t.join();
    publish_profile();
  }

  void worker_loop(unsigned self) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await(epoch, [seen](std::uint32_t e) { return e != seen; });
      if (shutdown) return;
      // profile_ and bind_scopes_ are written by the coordinator before
      // the epoch bump; the acquire above makes them visible.
      run_worker(self);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        remaining.notify_one();
      }
    }
  }

  /// Run worker `w`'s shards, timing them when profiling.
  void run_worker(unsigned w) {
    if (!sharded.profile_) {
      sharded.run_bound(w);
      return;
    }
    const std::uint64_t t0 = steady_ns();
    sharded.run_bound(w);
    stats[w].busy_ns += steady_ns() - t0;
    ++stats[w].windows;
  }

  /// One parallel window from the coordinating thread: release the
  /// workers, run worker 0's shards inline, wait for every check-in.
  void run_window() {
    const std::uint64_t w0 = sharded.profile_ ? steady_ns() : 0;
    remaining.store(std::uint32_t(threads.size()), std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    run_worker(0);
    await(remaining, [](std::uint32_t r) { return r == 0; });
    if (sharded.profile_) wall_ns += steady_ns() - w0;
  }

  /// Hand the wall-clock busy/stall rows to the obs runtime. Stall is
  /// the window wall time a participant spent NOT executing shards —
  /// barrier waiting and load imbalance. Explicitly non-deterministic;
  /// the runtime exports it outside the determinism-checked sections.
  void publish_profile() {
    if (wall_ns == 0) return;
    std::vector<obs::WorkerProfile> rows;
    rows.reserve(stats.size());
    for (std::uint32_t w = 0; w < stats.size(); ++w) {
      obs::WorkerProfile row;
      row.pool = pool_id;
      row.worker = w;
      row.busy_ns = stats[w].busy_ns;
      row.stall_ns = wall_ns > stats[w].busy_ns ? wall_ns - stats[w].busy_ns
                                                : 0;
      row.windows = stats[w].windows;
      rows.push_back(row);
    }
    obs::Runtime::instance().publish_workers(std::move(rows));
  }

  /// Own cache line per worker: each worker bumps only its own row.
  struct alignas(64) WorkerStat {
    std::uint64_t busy_ns = 0;
    std::uint64_t windows = 0;
  };

  ShardedSimulator& sharded;
  alignas(64) std::atomic<std::uint32_t> epoch{0};
  alignas(64) std::atomic<std::uint32_t> remaining{0};
  bool shutdown = false;
  std::vector<WorkerStat> stats;  ///< index 0 is the coordinator
  std::uint64_t wall_ns = 0;      ///< profiled window wall time, summed
  std::uint32_t pool_id = 0;
  std::vector<std::thread> threads;  ///< last: uses every member above
};

ShardedSimulator::ShardedSimulator(const Config& config) : config_(config) {
  SIXG_ASSERT(config.shards >= 1, "a sharded run needs at least one shard");
  SIXG_ASSERT(config.window > Duration{},
              "the conservative window must be positive");
  const unsigned requested =
      config.workers != 0 ? config.workers
                          : std::max(1u, std::thread::hardware_concurrency());
  workers_ = std::min<unsigned>(requested, config.shards);
  shards_.reserve(config.shards);
  for (std::uint32_t k = 0; k < config.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(shard_seed(config.seed, k), config.shards));
  }
  if (workers_ > 1) pool_ = std::make_unique<Pool>(*this, workers_);
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::post(std::uint32_t src, std::uint32_t dst, TimePoint at,
                            Simulator::Action action) {
  SIXG_ASSERT(src < shards_.size() && dst < shards_.size(),
              "post() shard index out of range");
  SIXG_ASSERT(src != dst,
              "same-shard post: schedule on shard(src) directly instead");
  // The conservative causality bound: a message emitted during the
  // window ending at horizon_ is only delivered at that barrier, so it
  // must not be due before it. Window sizing (<= the minimum cross-shard
  // latency) makes every physically modelled message satisfy this.
  SIXG_ASSERT(!running_ || at >= horizon_,
              "cross-shard message due before its conservative window end — "
              "the window exceeds the minimum cross-shard latency");
  SIXG_ASSERT(running_ || at >= now_,
              "cross-shard message due before the barrier clock");
  // Inside window w, write buffer w & 1 (window w + 1 drains it);
  // outside a window, write the buffer the next window drains.
  const std::uint64_t next = running_ ? windows_ : windows_ + 1;
  Shard& from = *shards_[src];
  from.outbox[next & 1][dst].push_back(Message{at, std::move(action)});
  ++from.posted[next & 1];
}

bool ShardedSimulator::has_work() const {
  for (const auto& shard : shards_) {
    if (shard->sim.pending_events() > 0) return true;
    if (shard->posted[0] + shard->posted[1] > 0) return true;
  }
  return false;
}

void ShardedSimulator::drain_into(std::uint32_t dst) {
  // Fixed (dst, src, append-order) total order: the destination kernel
  // assigns the same event sequence numbers regardless of which worker
  // runs which shard. This order IS the determinism contract — do not
  // reorder for convenience. The buffer is the one the previous window
  // (or the coordinator, between windows) wrote; sources append to the
  // other one while this drain runs.
  const std::size_t parity = (windows_ + 1) & 1;
  Simulator& sink = shards_[dst]->sim;
  for (std::uint32_t src = 0; src < shards_.size(); ++src) {
    if (src == dst) continue;
    auto& box = shards_[src]->outbox[parity][dst];
    for (Message& m : box) {
      SIXG_ASSERT(m.at >= now_,
                  "drained message due before the barrier clock");
      sink.schedule_at(m.at, std::move(m.action));
    }
    box.clear();
  }
}

void ShardedSimulator::run_bound(unsigned worker) {
  for (std::uint32_t k = worker; k < shards_.size(); k += workers_) {
    // Shard k's probes always land in shard k's scope, whichever worker
    // it is bound to — the merged metrics (and the per-shard trace
    // streams) stay byte-identical at any worker count.
    const obs::ScopeBind bind(bind_scopes_ ? scopes_[k] : nullptr);
    drain_into(k);
    shards_[k]->sim.run_until(horizon_);
  }
}

void ShardedSimulator::step_window(TimePoint horizon) {
  if (obs::kProbesCompiled) {
    // Latch per-window observability decisions on the coordinator; the
    // epoch bump publishes them to workers.
    bind_scopes_ = obs::probes_enabled();
    profile_ = obs::metrics_on() && workers_ > 1;
    if (bind_scopes_ && scopes_.empty()) {
      scopes_.resize(shards_.size());
      auto& rt = obs::Runtime::instance();
      for (std::uint32_t k = 0; k < shards_.size(); ++k) {
        scopes_[k] = rt.shard_scope(k);
      }
    }
  }
  // Every message in the drain buffer is delivered this window: count
  // them here, before the workers take the buffer.
  std::uint64_t delivered = 0;
  const std::size_t parity = (windows_ + 1) & 1;
  for (const auto& shard : shards_) {
    delivered += shard->posted[parity];
    shard->posted[parity] = 0;
  }
  messages_ += delivered;
  SIXG_OBS_COUNT(obs::Metric::kShardMessages, delivered);
  SIXG_OBS_HIST(obs::Metric::kHistDrainMessages, delivered);
  SIXG_OBS_COUNT(obs::Metric::kShardWindows, 1);
  SIXG_OBS_INSTANT(obs::TraceName::kDrain, now_.ns(), delivered);
  SIXG_OBS_SPAN(obs::TraceName::kWindow, now_.ns(), (horizon - now_).ns(),
                windows_);
  horizon_ = horizon;
  running_ = true;
  if (pool_ != nullptr) {
    pool_->run_window();
  } else {
    run_bound(0);
  }
  running_ = false;
  now_ = horizon;
  ++windows_;
}

void ShardedSimulator::run() {
  SIXG_OBS_GAUGE(obs::Metric::kShardLookaheadNs, double(config_.window.ns()));
  SIXG_OBS_GAUGE(obs::Metric::kShardShards, double(shards_.size()));
  while (has_work()) step_window(now_ + config_.window);
}

void ShardedSimulator::run_until(TimePoint horizon) {
  SIXG_OBS_GAUGE(obs::Metric::kShardLookaheadNs, double(config_.window.ns()));
  SIXG_OBS_GAUGE(obs::Metric::kShardShards, double(shards_.size()));
  while (now_ < horizon) {
    const TimePoint next = now_ + config_.window;
    step_window(next < horizon ? next : horizon);
  }
}

std::uint64_t ShardedSimulator::processed_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.processed_events();
  return total;
}

}  // namespace sixg::netsim

#include "netsim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace sixg::netsim {

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())) {}

void ParallelRunner::run_chunked(
    std::size_t job_count, std::size_t chunk,
    const std::function<void(std::size_t)>& job) const {
  if (job_count == 0) return;
  if (chunk == 0) chunk = 1;
  // An oversized chunk must not serialise the whole run: clamp it to a
  // fair split so every thread still gets work. Results are unchanged
  // (jobs are independent and chunking never affects seed derivation).
  if (chunk > job_count && threads_ > 1) {
    chunk = (job_count + threads_ - 1) / threads_;
  }
  if (threads_ == 1 || job_count <= chunk) {
    for (std::size_t i = 0; i < job_count; ++i) job(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= job_count) return;
      const std::size_t end = std::min(begin + chunk, job_count);
      for (std::size_t i = begin; i < end; ++i) job(i);
    }
  };
  const std::size_t chunk_count = (job_count + chunk - 1) / chunk;
  const unsigned n = unsigned(std::min<std::size_t>(threads_, chunk_count));
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (unsigned t = 0; t + 1 < n; ++t) {
    // Spawned workers get their own metric scope: probe counters from
    // replication jobs sum commutatively at scenario end, so the merged
    // metrics are thread-count invariant. The calling thread keeps its
    // existing binding (usually the main scope).
    pool.emplace_back([&worker] {
      const obs::ScopeBind bind(obs::probes_enabled()
                                    ? obs::Runtime::instance().thread_scope()
                                    : nullptr);
      worker();
    });
  }
  worker();  // calling thread participates
  for (auto& t : pool) t.join();
}

}  // namespace sixg::netsim

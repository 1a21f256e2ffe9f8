/// @file parallel.hpp — fixed-pool parallel job runner used to fan
/// independent simulation replications across worker threads.
#pragma once

#include <cstdint>
#include <functional>

namespace sixg::netsim {

/// Executes N independent jobs on a fixed pool of worker threads.
///
/// This is the HPC entry point of the toolkit: measurement campaigns and
/// Monte-Carlo sweeps decompose into independent replications (one
/// Simulator each, seeded via derive_seed), so the natural parallelisation
/// is a static job list with an atomic cursor — no locks on the hot path,
/// no shared mutable simulation state, results merged by the caller
/// (stats::Summary::merge is associative).
class ParallelRunner {
 public:
  /// `threads` == 0 selects std::thread::hardware_concurrency().
  explicit ParallelRunner(unsigned threads = 0);

  [[nodiscard]] unsigned thread_count() const { return threads_; }

  /// Run job(i) for i in [0, job_count); blocks until all jobs finish.
  /// Jobs must not throw; they run on worker threads. Workers claim
  /// `chunk` consecutive indices per cursor bump: one atomic RMW per
  /// chunk instead of per job, and consecutive indices (which usually
  /// share warm state) stay on one worker. `chunk` == 0 means 1. The
  /// campaign engine sizes chunks so each worker gets several turns. A chunk
  /// larger than the job list is clamped to a fair per-thread split
  /// rather than serialising the run; chunking never changes results
  /// (jobs are independent and seeds derive from the index alone).
  void run_chunked(std::size_t job_count, std::size_t chunk,
                   const std::function<void(std::size_t)>& job) const;

 private:
  unsigned threads_;
};

}  // namespace sixg::netsim

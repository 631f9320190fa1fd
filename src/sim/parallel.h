// Shared-index parallel loop, factored out of scenario::SweepRunner so the
// sweep executor and the testbed measurement pass shard work the same way.
// Work items must be independent: each index is claimed exactly once via an
// atomic counter, so the mapping of index -> thread is nondeterministic but
// the set of executed indices is not. Callers that need deterministic
// results must make each item's output depend only on its index (disjoint
// output slots, substream-derived randomness), which is the repo-wide
// convention.
//
// WorkerCrew adds the persistent variant the PDES engine needs: the engine
// dispatches one small batch of partition windows per synchronization
// round, tens of thousands of rounds per simulated second, so spawning
// threads per batch (what parallel_for does) would dominate, and so would
// a mutex handshake per batch. A crew hands each batch over through
// atomics alone: workers park in std::atomic::wait on a generation
// counter, claim indices with one compare-and-swap, and the calling thread
// claims items alongside them. This file is the blessed home for raw
// threads — tools/cmap_lint's raw-thread rule allows them nowhere else.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace cmap::sim {

/// Worker count from the environment: CMAP_BENCH_THREADS if set, else the
/// hardware concurrency (at least 1).
int default_thread_count();

/// Run `fn(i)` for every i in [0, count). `threads` <= 0 resolves via
/// default_thread_count(); the effective worker count is also capped at
/// `count`. With one worker the loop runs inline on the calling thread.
/// If any invocation throws, remaining unclaimed indices are abandoned and
/// the first exception is rethrown on the calling thread.
void parallel_for(int threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// A persistent crew for many small batches. `threads` counts the calling
/// thread: a crew of 4 is 3 parked workers plus whoever calls run(). run()
/// publishes a batch, wakes the workers, executes items itself, and
/// returns once every index has been claimed and finished — a full
/// barrier, which doubles as the happens-before edge PDES rounds rely on:
/// everything items wrote during a batch is visible to the caller after
/// run(), and everything the caller wrote before run() is visible to the
/// items.
///
/// With `threads` <= 1 no thread is ever created and run() executes the
/// batch inline in index order — the deterministic mode golden tests use.
/// A batch of one item also runs inline, without waking anyone. Otherwise
/// the index -> thread mapping is nondeterministic, so items must be
/// independent (the parallel_for contract above).
class WorkerCrew {
 public:
  explicit WorkerCrew(int threads);
  ~WorkerCrew();
  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  /// Run `fn(i)` for every i in [0, count); blocks until all complete.
  /// `fn` must not throw (simulation events abort on error by contract).
  /// At most 65535 items per batch.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  bool claim(std::uint32_t generation, std::size_t* index);
  void worker_loop();

  // Bumped once per multi-item batch (and once at shutdown); parked
  // workers wait on it.
  std::atomic<std::uint32_t> generation_{0};
  // The current batch's claim word: generation:32 | count:16 | next:16.
  // Carrying the generation makes a stale claim fail its CAS, so a worker
  // that lagged behind one batch can never take an index of the next.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<std::uint32_t> finished_{0};
  std::atomic<bool> shutdown_{false};
  // Plain on purpose: written by run() before the claim word is
  // published, read by workers only after a successful claim.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace cmap::sim

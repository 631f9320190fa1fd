// Shared-index parallel loop, factored out of scenario::SweepRunner so the
// sweep executor and the testbed measurement pass shard work the same way.
// Work items must be independent: each index is claimed exactly once via an
// atomic counter, so the mapping of index -> thread is nondeterministic but
// the set of executed indices is not. Callers that need deterministic
// results must make each item's output depend only on its index (disjoint
// output slots, substream-derived randomness), which is the repo-wide
// convention.
//
// ThreadTeam is the persistent variant PDES needs (testbed::World::run):
// one batch of partitions per run() call, partition p always on team
// thread p % threads. A partition's events allocate and free frames all
// run long, so it stays on the thread whose malloc caches hold them;
// fresh threads per call measured slower (docs/pdes.md).
//
// This file is the blessed home for raw threads — tools/cmap_lint's
// raw-thread rule allows them nowhere else.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
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

/// Persistent threads for batches whose items keep per-index state.
/// `threads` counts the calling thread: a team of 4 is 3 workers plus
/// whoever calls run(). Item i of every batch runs on team thread
/// i % threads, the caller being thread 0. Workers park on a condition
/// variable between batches. run() is a full barrier: everything the items
/// wrote is visible to the caller once it returns. With `threads` <= 1, or
/// a batch of one item, run() executes the items inline in index order.
class ThreadTeam {
 public:
  explicit ThreadTeam(int threads);
  ~ThreadTeam();
  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  /// Run `fn(i)` for every i in [0, count); blocks until all complete.
  /// `fn` must not throw (simulation events abort on error by contract).
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker(std::size_t thread);
  void run_share(std::size_t thread);

  std::mutex mutex_;
  std::condition_variable wake_;  // a batch was published, or stop_
  std::condition_variable done_;  // busy_ reached 0
  // The current batch: written under mutex_ before generation_ moves, and
  // not again until every worker has counted itself out of busy_.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t busy_ = 0;  // workers still on the current batch
  bool stop_ = false;
  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;
};

}  // namespace cmap::sim

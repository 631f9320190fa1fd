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
// round, tens of thousands of rounds per simulated second, each round a
// few microseconds of wall time. Spawning threads per batch (what
// parallel_for does) would dominate, and so would one futex wake-up per
// batch. Two rules keep the handoff cheap:
//
//  * Static ownership. Thread t of a crew of T owns indices t, t + T,
//    t + 2T, ... of every batch, and the calling thread is thread 0. A
//    PDES partition's queue and node state therefore stay on one core
//    round after round. A batch is published by bumping a generation
//    counter and closed by a count of finished shares; each worker claims
//    its own share with one compare-and-swap on a word nobody else
//    touches unless the worker is late.
//  * Spin while a run is live. Inside a LiveRun scope (PdesEngine::run_until
//    opens one), a worker that finished a batch polls the generation with
//    a CPU pause, yielding now and then, for up to kSpinBudget (100 us,
//    parallel.cpp) before it parks in std::atomic::wait. Outside one
//    (set-up, between a driver's slices) workers park at once, and so do
//    the workers of a crew with more threads than
//    std::thread::hardware_concurrency().
//
// Spinning makes every crew thread runnable, so a crew that shares its
// CPUs (another process, a pinned test, a busy host) has workers that are
// not running when their share comes. In a live run the caller therefore
// takes over any share still unclaimed kTakeoverDelay (1 us) after
// publishing it, and the late worker's claim then fails. A spinning
// worker usually claims sooner, so ownership holds for most shares of a
// PDES run; outside a live run it is strict.
//
// This file is the blessed home for raw threads — tools/cmap_lint's
// raw-thread rule allows them nowhere else.
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
/// thread: a crew of 4 is 3 workers plus whoever calls run(). run()
/// publishes a batch, executes the caller's share of it, and returns once
/// every worker's share has finished — a full barrier, which doubles as
/// the happens-before edge PDES rounds rely on: everything items wrote
/// during a batch is visible to the caller after run(), and everything the
/// caller wrote before run() is visible to the items.
///
/// With `threads` <= 1 no thread is ever created and run() executes the
/// batch inline in index order — the deterministic mode golden tests use.
/// A batch of one item also runs inline, without waking anyone. Otherwise
/// index i runs on crew thread i % threads (inside a LiveRun, on the
/// calling thread instead when its owner is late), so items that keep
/// per-index state mostly keep it on one thread; items must still be
/// independent of each other (the parallel_for contract above).
class WorkerCrew {
 public:
  explicit WorkerCrew(int threads);
  ~WorkerCrew();
  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  /// Run `fn(i)` for every i in [0, count); blocks until all complete.
  /// `fn` is borrowed for the call, never copied, so a batch allocates
  /// nothing. `fn` must not throw (simulation events abort on error by
  /// contract).
  template <class Fn>
  void run(std::size_t count, const Fn& fn) {
    if (workers_.empty() || count <= 1) {
      // Inline: index order on the calling thread, nobody woken.
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    dispatch(count, &invoke<Fn>, &fn);
  }

  /// Marks a run as live for the scope's lifetime: between batches the
  /// workers spin instead of parking, and run() takes over the share of a
  /// worker that is late to claim it. Scopes do not nest.
  class LiveRun {
   public:
    explicit LiveRun(WorkerCrew& crew) : crew_(crew) {
      crew_.live_.store(true, std::memory_order_relaxed);
    }
    ~LiveRun() { crew_.live_.store(false, std::memory_order_relaxed); }
    LiveRun(const LiveRun&) = delete;
    LiveRun& operator=(const LiveRun&) = delete;

   private:
    WorkerCrew& crew_;
  };

 private:
  using Item = void (*)(const void* fn, std::size_t index);

  template <class Fn>
  static void invoke(const void* fn, std::size_t index) {
    (*static_cast<const Fn*>(fn))(index);
  }

  void dispatch(std::size_t count, Item item, const void* fn);
  void worker_loop(std::size_t thread);
  std::uint32_t await_batch(std::uint32_t seen);
  bool claim(std::size_t thread, std::uint32_t generation);
  void run_share(std::size_t thread);

  // Read by every worker on every poll; written by run() once per batch.
  // Bumped once per multi-item batch (and once at shutdown).
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  std::atomic<bool> live_{false};
  std::atomic<bool> shutdown_{false};
  // Plain on purpose: written by run() before the generation is bumped,
  // read only by whoever claimed a worker's share of that batch, and not
  // written again until every share has been counted finished.
  Item item_ = nullptr;
  const void* fn_ = nullptr;
  std::size_t count_ = 0;
  // Worker shares done with the current batch; on its own line so the
  // increments do not disturb the line the workers poll.
  alignas(64) std::atomic<std::size_t> finished_{0};
  struct Share {
    // The last generation whose share was claimed, by the worker or by
    // run() taking it over; each worker's on its own line.
    alignas(64) std::atomic<std::uint32_t> claimed{0};
  };
  std::vector<Share> shares_;  // shares_[t - 1] belongs to worker t
  // Fixed at construction.
  std::size_t threads_ = 1;
  bool spin_ = false;  // workers may spin: the crew fits the machine
  std::vector<std::thread> workers_;
};

}  // namespace cmap::sim

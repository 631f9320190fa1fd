#include "sim/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cmap::sim {

int default_thread_count() {
  // Called from the main thread before any pool exists, and nothing in
  // this process ever calls setenv, so the non-reentrant read is safe.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* v = std::getenv("CMAP_BENCH_THREADS")) {
    const long n = std::atol(v);
    if (n > 0) return static_cast<int>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(int threads, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (threads <= 0) threads = default_thread_count();
  const int workers =
      static_cast<std::size_t>(threads) < count ? threads
                                                : static_cast<int>(count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

// How long a worker of a live run polls for the next batch before it
// parks. A PDES round lasts a few microseconds of wall time and a futex
// wake-up costs more than a partition's window, so the budget spans many
// rounds; it is bounded so that a worker whose run went quiet (a long
// single-window streak, a global barrier) gives its CPU back.
constexpr std::chrono::microseconds kSpinBudget{100};
// Pauses between clock reads (and yields) while spinning.
constexpr unsigned kPollsPerClockRead = 64;
// How long run() waits, in a live run, for a worker to claim its share
// before running the share itself. A spinning worker usually claims
// sooner; one that is parked, or whose CPU went to another thread, would
// otherwise stall the whole round. Longer delays keep more shares with
// their owners on an idle machine but lose more time whenever the CPUs
// are shared.
constexpr std::chrono::microseconds kTakeoverDelay{1};

// Tell the core this is a spin-wait: frees pipeline resources for a
// hyperthread sibling and avoids the memory-order flush on loop exit.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

WorkerCrew::WorkerCrew(int threads) {
  if (threads <= 1) return;
  threads_ = static_cast<std::size_t>(threads);
  spin_ = static_cast<unsigned>(threads) <= std::thread::hardware_concurrency();
  shares_ = std::vector<Share>(threads_ - 1);
  workers_.reserve(threads_ - 1);
  for (std::size_t t = 1; t < threads_; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

WorkerCrew::~WorkerCrew() {
  shutdown_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& w : workers_) w.join();
}

bool WorkerCrew::claim(std::size_t thread, std::uint32_t generation) {
  // Every share of every batch is claimed exactly once before the next
  // batch is published, so an open share still holds the previous
  // generation. A worker that fell behind a batch fails here and reads
  // none of the batch fields.
  std::uint32_t open = generation - 1;
  return shares_[thread - 1].claimed.compare_exchange_strong(
      open, generation, std::memory_order_relaxed);
}

void WorkerCrew::run_share(std::size_t thread) {
  for (std::size_t i = thread; i < count_; i += threads_) item_(fn_, i);
  // Release pairs with run()'s acquire of the complete count.
  finished_.fetch_add(1, std::memory_order_release);
}

void WorkerCrew::dispatch(std::size_t count, Item item, const void* fn) {
  // Every share of the previous batch was counted finished before its
  // run() returned, so nobody reads these fields until the bump below.
  item_ = item;
  fn_ = fn;
  count_ = count;
  finished_.store(0, std::memory_order_relaxed);
  const std::uint32_t generation =
      generation_.fetch_add(1, std::memory_order_release) + 1;
  generation_.notify_all();  // a no-op unless some worker is parked

  for (std::size_t i = 0; i < count; i += threads_) item(fn, i);
  // Acquire pairs with every share's release increment: their writes are
  // visible once the count is complete. Yield, not pause, so a worker
  // sharing this CPU can run. In a live run, shares still unclaimed after
  // kTakeoverDelay run here instead.
  bool take_over = live_.load(std::memory_order_relaxed);
  // cmap-lint: allow(banned-wallclock) -- times the takeover of a late worker's share; never reaches simulation state
  const auto take_over_at = std::chrono::steady_clock::now() + kTakeoverDelay;
  while (finished_.load(std::memory_order_acquire) != workers_.size()) {
    // cmap-lint: allow(banned-wallclock) -- as above
    if (take_over && std::chrono::steady_clock::now() >= take_over_at) {
      for (std::size_t t = 1; t < threads_; ++t) {
        if (claim(t, generation)) run_share(t);
      }
      take_over = false;
    }
    std::this_thread::yield();
  }
}

std::uint32_t WorkerCrew::await_batch(std::uint32_t seen) {
  if (spin_ && live_.load(std::memory_order_relaxed)) {
    // cmap-lint: allow(banned-wallclock) -- bounds an idle spin; never reaches simulation state
    const auto give_up_at = std::chrono::steady_clock::now() + kSpinBudget;
    for (unsigned polls = 1; live_.load(std::memory_order_relaxed); ++polls) {
      const std::uint32_t g = generation_.load(std::memory_order_acquire);
      if (g != seen) return g;
      cpu_relax();
      if (polls % kPollsPerClockRead != 0) continue;
      // Yield now and then, so a thread waiting for this CPU (another
      // crew thread with work, or another process) gets it soon.
      std::this_thread::yield();
      // cmap-lint: allow(banned-wallclock) -- as above
      if (std::chrono::steady_clock::now() >= give_up_at) break;
    }
  }
  generation_.wait(seen, std::memory_order_acquire);
  return generation_.load(std::memory_order_acquire);
}

void WorkerCrew::worker_loop(std::size_t thread) {
  std::uint32_t seen = 0;
  for (;;) {
    // Acquire pairs with dispatch()'s release bump: the batch fields and
    // everything the caller wrote before run() are visible from here.
    seen = await_batch(seen);
    if (shutdown_.load(std::memory_order_relaxed)) return;
    if (claim(thread, seen)) run_share(thread);
  }
}

}  // namespace cmap::sim

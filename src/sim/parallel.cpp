#include "sim/parallel.h"

#include <atomic>
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

ThreadTeam::ThreadTeam(int threads) {
  threads_ = threads > 1 ? static_cast<std::size_t>(threads) : 1;
  workers_.reserve(threads_ - 1);
  for (std::size_t t = 1; t < threads_; ++t) {
    workers_.emplace_back([this, t] { worker(t); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadTeam::run_share(std::size_t thread) {
  for (std::size_t i = thread; i < count_; i += threads_) (*fn_)(i);
}

void ThreadTeam::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    count_ = count;
    busy_ = workers_.size();
    ++generation_;
  }
  wake_.notify_all();
  run_share(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return busy_ == 0; });
}

void ThreadTeam::worker(std::size_t thread) {
  // run() waits for every worker before it publishes the next batch, so
  // no worker can miss a generation.
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    run_share(thread);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) done_.notify_one();
  }
}

}  // namespace cmap::sim

#include "sim/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/assert.h"

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

constexpr std::uint64_t pack_claim(std::uint32_t generation,
                                   std::size_t count) {
  return static_cast<std::uint64_t>(generation) << 32 |
         static_cast<std::uint64_t>(count) << 16;
}
constexpr std::uint32_t claim_generation(std::uint64_t word) {
  return static_cast<std::uint32_t>(word >> 32);
}
constexpr std::size_t claim_count(std::uint64_t word) {
  return static_cast<std::size_t>(word >> 16 & 0xFFFF);
}
constexpr std::size_t claim_next(std::uint64_t word) {
  return static_cast<std::size_t>(word & 0xFFFF);
}

}  // namespace

WorkerCrew::WorkerCrew(int threads) {
  if (threads <= 1) return;
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerCrew::~WorkerCrew() {
  shutdown_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& w : workers_) w.join();
}

bool WorkerCrew::claim(std::uint32_t generation, std::size_t* index) {
  // Acquire pairs with run()'s release store of the claim word (later
  // claims extend its release sequence), ordering the caller's fn_ write
  // and everything before run() ahead of the item about to execute.
  std::uint64_t word = claim_.load(std::memory_order_acquire);
  for (;;) {
    if (claim_generation(word) != generation ||
        claim_next(word) >= claim_count(word)) {
      return false;
    }
    if (claim_.compare_exchange_weak(word, word + 1,
                                     std::memory_order_acquire)) {
      *index = claim_next(word);
      return true;
    }
  }
}

void WorkerCrew::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline: index order on the calling thread, nobody woken.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  CMAP_ASSERT(count <= 0xFFFF, "WorkerCrew batch exceeds 65535 items");
  // Every item of the previous batch finished before its run() returned,
  // so no worker reads fn_ or counts into finished_ until the claim word
  // below is published.
  fn_ = &fn;
  finished_.store(0, std::memory_order_relaxed);
  const std::uint32_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  claim_.store(pack_claim(generation, count), std::memory_order_release);
  generation_.store(generation, std::memory_order_release);
  generation_.notify_all();

  std::size_t i = 0;
  while (claim(generation, &i)) {
    fn(i);
    finished_.fetch_add(1, std::memory_order_release);
  }
  // Acquire pairs with every item's release increment: their writes are
  // visible once the count is complete.
  while (finished_.load(std::memory_order_acquire) != count) {
    std::this_thread::yield();
  }
}

void WorkerCrew::worker_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (shutdown_.load(std::memory_order_relaxed)) return;
    std::size_t i = 0;
    while (claim(seen, &i)) {
      (*fn_)(i);
      finished_.fetch_add(1, std::memory_order_release);
    }
  }
}

}  // namespace cmap::sim

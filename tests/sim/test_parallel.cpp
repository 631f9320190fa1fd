// The shared-index parallel loop must execute every index exactly once for
// any worker count, propagate the first exception, and degrade to an
// inline loop for <= 1 effective worker. The persistent ThreadTeam must
// run every index of every batch once, item i always on team thread
// i % threads (the caller being thread 0), and its run() must be a full
// barrier (the TSan build checks the plain-data test).
#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cmap::sim {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    parallel_for(threads, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  bool called = false;
  parallel_for(4, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleWorkerRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  parallel_for(1, seen.size(),
               [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, WorkerCountCappedAtItemCount) {
  // 64 workers over 2 items must not deadlock or double-run items.
  std::vector<std::atomic<int>> hits(2);
  for (auto& h : hits) h.store(0);
  parallel_for(64, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        parallel_for(threads, 100,
                     [&](std::size_t i) {
                       if (i == 13) throw std::runtime_error("boom");
                     }),
        std::runtime_error)
        << "threads " << threads;
  }
}

TEST(ThreadTeam, BackToBackBatchesRunEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ThreadTeam team(threads);
    std::vector<std::atomic<int>> hits(5);
    for (auto& h : hits) h.store(0);
    constexpr int kBatches = 2000;
    for (int b = 0; b < kBatches; ++b) {
      team.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), kBatches) << "threads " << threads;
    }
  }
}

TEST(ThreadTeam, EachIndexRunsOnItsOwnThreadEveryBatch) {
  ThreadTeam team(3);
  std::vector<std::thread::id> first(7);
  team.run(first.size(),
           [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  EXPECT_EQ(first[0], std::this_thread::get_id());
  for (std::size_t i = 3; i < first.size(); ++i) {
    EXPECT_EQ(first[i], first[i % 3]) << "index " << i;
  }
  EXPECT_NE(first[1], first[0]);
  EXPECT_NE(first[2], first[1]);
  for (int b = 0; b < 50; ++b) {
    std::vector<std::thread::id> seen(first.size());
    team.run(seen.size(),
             [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
    EXPECT_EQ(seen, first) << "batch " << b;
  }
}

TEST(ThreadTeam, RunIsABarrierForPlainData) {
  // Items write plain (non-atomic) slots that the caller reads after
  // run() and rewrites before the next one: a race TSan would report if
  // run() were not a barrier in both directions.
  ThreadTeam team(4);
  std::vector<long> slots(4, 0);
  for (long b = 1; b <= 500; ++b) {
    team.run(slots.size(), [&](std::size_t i) { slots[i] += b; });
    for (long& v : slots) {
      ASSERT_EQ(v, b);
      v = 0;
    }
  }
}

TEST(ThreadTeam, SingleThreadRunsInlineInIndexOrder) {
  ThreadTeam team(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  team.run(4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace cmap::sim

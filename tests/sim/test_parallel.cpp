// The shared-index parallel loop must execute every index exactly once for
// any worker count, propagate the first exception, and degrade to an
// inline loop for <= 1 effective worker. The persistent WorkerCrew must do
// the same across many back-to-back batches, run index i on crew thread
// i % threads outside a live run, lose no item inside one whether its
// workers spin, park or have their share taken over by the caller, and
// its run() must be a full barrier in both directions (the TSan build
// checks the plain-data tests).
#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
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

TEST(WorkerCrew, BackToBackBatchesRunEveryIndexExactlyOnce) {
  constexpr int kBatches = 100000;
  for (int threads : {1, 2, 4, 8}) {
    WorkerCrew crew(threads);
    std::vector<std::atomic<int>> hits(5);
    for (int b = 0; b < kBatches; ++b) {
      const std::size_t count = 1 + static_cast<std::size_t>(b % 5);
      for (std::size_t i = 0; i < count; ++i) hits[i].store(0);
      crew.run(count, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads " << threads << " batch " << b << " index " << i;
      }
    }
  }
}

TEST(WorkerCrew, ZeroCountIsANoop) {
  WorkerCrew crew(4);
  bool called = false;
  crew.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerCrew, BatchOfOneRunsOnTheCallingThread) {
  WorkerCrew crew(4);
  const auto caller = std::this_thread::get_id();
  for (int b = 0; b < 1000; ++b) {
    std::thread::id seen;
    crew.run(1, [&](std::size_t) { seen = std::this_thread::get_id(); });
    ASSERT_EQ(seen, caller) << "batch " << b;
  }
}

TEST(WorkerCrew, SingleThreadRunsInlineInIndexOrder) {
  WorkerCrew crew(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  crew.run(6, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(WorkerCrew, RunIsABarrierForPlainData) {
  // Non-atomic slots: the caller's writes before run() must be visible to
  // the items, and the items' writes visible to the caller after run().
  // A missing happens-before edge in either direction is a data race the
  // TSan build reports.
  WorkerCrew crew(4);
  std::vector<long> input(4, 0);
  std::vector<long> output(4, 0);
  for (long round = 1; round <= 20000; ++round) {
    const std::size_t count = 2 + static_cast<std::size_t>(round % 3);
    for (std::size_t i = 0; i < count; ++i) {
      input[i] = round * 10 + static_cast<long>(i);
    }
    crew.run(count, [&](std::size_t i) { output[i] = input[i] + 1; });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(output[i], round * 10 + static_cast<long>(i) + 1)
          << "round " << round << " index " << i;
    }
  }
}

TEST(WorkerCrew, MoreThreadsThanItems) {
  WorkerCrew crew(8);
  for (int b = 0; b < 10000; ++b) {
    std::vector<std::atomic<int>> hits(2);
    for (auto& h : hits) h.store(0);
    crew.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    ASSERT_EQ(hits[0].load(), 1) << "batch " << b;
    ASSERT_EQ(hits[1].load(), 1) << "batch " << b;
  }
}

TEST(WorkerCrew, ConstructAndDestroyWithParkedWorkers) {
  // Half the crews never see a batch (workers parked from the start), half
  // shut down right after one; neither may hang or lose an item.
  for (int c = 0; c < 100; ++c) {
    WorkerCrew crew(1 + c % 8);
    if (c % 2 == 0) continue;
    std::atomic<int> ran{0};
    crew.run(3, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 3) << "crew " << c;
  }
}

TEST(WorkerCrew, EachIndexRunsOnTheSameThreadEveryBatch) {
  // Outside a live run ownership is strict: nothing is ever taken over.
  WorkerCrew crew(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> first(4);
  crew.run(first.size(),
           [&](std::size_t i) { first[i] = std::this_thread::get_id(); });
  EXPECT_EQ(first[0], caller);
  std::vector<std::thread::id> distinct = first;
  std::sort(distinct.begin(), distinct.end());
  EXPECT_EQ(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (int b = 1; b < 500; ++b) {
    std::vector<std::thread::id> seen(4);
    crew.run(seen.size(),
             [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
    ASSERT_EQ(seen, first) << "batch " << b;
  }
}

TEST(WorkerCrew, MoreItemsThanThreadsMapsByModulo) {
  WorkerCrew crew(2);
  const auto caller = std::this_thread::get_id();
  for (int b = 0; b < 100; ++b) {
    std::vector<std::thread::id> seen(5);
    crew.run(seen.size(),
             [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
    ASSERT_EQ(seen[0], caller) << "batch " << b;
    ASSERT_EQ(seen[2], caller) << "batch " << b;
    ASSERT_EQ(seen[4], caller) << "batch " << b;
    ASSERT_NE(seen[1], caller) << "batch " << b;
    ASSERT_EQ(seen[3], seen[1]) << "batch " << b;
  }
}

TEST(WorkerCrew, LiveRunSurvivesGapsLongerThanTheSpinBudget) {
  // Inside a live run the workers spin between batches; a gap well past
  // the spin budget makes them park mid-run, so the next batch either
  // wakes them or, if they wake late, has its shares taken over by the
  // caller. Every handoff must lose no item and stay a plain-data barrier.
  WorkerCrew crew(4);
  const WorkerCrew::LiveRun live(crew);
  std::vector<long> output(4, 0);
  for (long round = 1; round <= 200; ++round) {
    if (round % 20 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    crew.run(output.size(), [&](std::size_t i) {
      output[i] = round * 10 + static_cast<long>(i);
    });
    for (std::size_t i = 0; i < output.size(); ++i) {
      ASSERT_EQ(output[i], round * 10 + static_cast<long>(i))
          << "round " << round << " index " << i;
    }
  }
}

}  // namespace
}  // namespace cmap::sim

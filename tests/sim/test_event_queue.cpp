#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

namespace cmap::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeEventsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (q.run_one()) {
  }
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(id.pending());
  id.cancel();
  EXPECT_FALSE(id.pending());
  while (q.run_one()) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterRun) {
  EventQueue q;
  EventId id = q.schedule(1, [] {});
  while (q.run_one()) {
  }
  EXPECT_FALSE(id.pending());
  id.cancel();  // no-op, must not crash
  EventId empty;
  empty.cancel();  // default-constructed id, must not crash
  EXPECT_FALSE(empty.pending());
}

TEST(EventQueue, PendingFlipsAfterExecution) {
  EventQueue q;
  EventId id = q.schedule(1, [] {});
  EXPECT_TRUE(id.pending());
  q.run_one();
  EXPECT_FALSE(id.pending());
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<Time> times;
  q.schedule(10, [&] {
    times.push_back(q.current_time());
    q.schedule(20, [&] { times.push_back(q.current_time()); });
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(times, (std::vector<Time>{10, 20}));
}

TEST(EventQueue, NextTimeReflectsEarliestPending) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeForever);
  EventId a = q.schedule(50, [] {});
  q.schedule(70, [] {});
  EXPECT_EQ(q.next_time(), 50);
  a.cancel();
  EXPECT_EQ(q.next_time(), 70);
}

TEST(EventQueue, EmptySkipsCancelledEvents) {
  EventQueue q;
  EventId a = q.schedule(5, [] {});
  a.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExecutedCounterCountsOnlyRunEvents) {
  EventQueue q;
  EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  a.cancel();
  while (q.run_one()) {
  }
  EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastAborts) {
  EventQueue q;
  q.schedule(100, [&q] {
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
  });
  while (q.run_one()) {
  }
}

// A callable that counts how many times it is copied: scheduling and
// dispatch must move the callback, never deep-copy it.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const {}
};

TEST(EventQueue, DispatchMovesTheCallableInsteadOfCopying) {
  EventQueue q;
  int copies = 0;
  q.schedule(1, CopyCounter(&copies));
  EXPECT_EQ(copies, 0);
  while (q.run_one()) {
  }
  EXPECT_EQ(copies, 0);
}

TEST(EventQueue, CompactionBoundsCancelledEntries) {
  // Defer-TTL churn shape: schedule far-future events and cancel them
  // before they reach the head. Without compaction the heap retains every
  // cancelled entry; with it, live + dead stays within a constant factor
  // of the live count.
  EventQueue q;
  std::vector<EventId> pending;
  for (int i = 0; i < 100000; ++i) {
    pending.push_back(q.schedule(1000000 + i, [] {}));
    if (pending.size() > 16) {
      pending.front().cancel();
      pending.erase(pending.begin());
    }
  }
  // 16 live entries; the watermark doubling rule admits at most
  // max(2 * live-after-last-scan, 64) total before the next scan fires.
  EXPECT_LE(q.heap_size(), 64u);
}

TEST(EventQueue, StaleIdDoesNotTouchTheSlotsNextOccupant) {
  EventQueue q;
  EventId ran = q.schedule(1, [] {});
  q.run_one();
  EventId cancelled = q.schedule(2, [] {});
  cancelled.cancel();
  // Both freed slots are reused by the next two events.
  int fired = 0;
  EventId b = q.schedule(3, [&] { ++fired; });
  EventId c = q.schedule(4, [&] { ++fired; });
  EXPECT_FALSE(ran.pending());
  EXPECT_FALSE(cancelled.pending());
  ran.cancel();
  cancelled.cancel();
  EXPECT_TRUE(b.pending());
  EXPECT_TRUE(c.pending());
  while (q.run_one()) {
  }
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CopiesOfAnIdCancelTogether) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(10, [&] { ran = true; });
  EventId copy = id;
  EXPECT_TRUE(copy.pending());
  copy.cancel();
  EXPECT_FALSE(id.pending());
  EXPECT_FALSE(copy.pending());
  while (q.run_one()) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueue, PendingIsFalseAfterRunAndAfterCancel) {
  EventQueue q;
  EventId run = q.schedule(1, [] {});
  EventId cancel = q.schedule(2, [] {});
  EXPECT_TRUE(run.pending());
  EXPECT_TRUE(cancel.pending());
  cancel.cancel();
  EXPECT_FALSE(cancel.pending());
  EXPECT_TRUE(run.pending());
  q.run_one();
  EXPECT_FALSE(run.pending());
  EXPECT_FALSE(cancel.pending());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventMayCancelItselfFromItsOwnCallback) {
  EventQueue q;
  EventId self;
  int runs = 0;
  bool pending_inside = true;
  self = q.schedule(5, [&] {
    ++runs;
    pending_inside = self.pending();
    self.cancel();  // already running: a no-op
    q.schedule(6, [&] { ++runs; });  // may reuse the freed slot
    self.cancel();  // still must not reach the new occupant
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(pending_inside);
}

TEST(EventQueue, CallbackKeepsItsCapturesWhileThePoolGrows) {
  // A running callback that schedules enough events to grow the slot pool
  // must still see its own captures afterwards.
  EventQueue q;
  std::vector<int> seen;
  const std::array<int, 8> payload{1, 2, 3, 4, 5, 6, 7, 8};
  q.schedule(1, [&q, &seen, payload] {
    for (int i = 0; i < 1000; ++i) q.schedule(2, [] {});
    seen.assign(payload.begin(), payload.end());
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(q.executed(), 1001u);
}

TEST(EventQueue, CancelReleasesTheCapturesAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  EventId id = q.schedule(100, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  id.cancel();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, AdvanceToNeverMovesBackwards) {
  EventQueue q;
  q.schedule(100, [] {});
  while (q.run_one()) {
  }
  EXPECT_EQ(q.current_time(), 100);
  q.advance_to(50);  // stale horizon: clock must hold
  EXPECT_EQ(q.current_time(), 100);
  q.advance_to(200);
  EXPECT_EQ(q.current_time(), 200);
}

TEST(EventQueueDeathTest, SchedulePastAdvancedClockAborts) {
  EventQueue q;
  q.advance_to(500);
  EXPECT_DEATH(q.schedule(499, [] {}), "past");
}

TEST(EventQueue, RankClassesOrderSameTickEvents) {
  EventQueue q;
  std::vector<int> order;
  // Insertion order deliberately scrambled: local first, then deliveries
  // (in descending key), then a global event, all at t=10.
  q.schedule(10, [&] { order.push_back(4); });  // cls 2 FIFO #1
  q.schedule_ranked(10, delivery_rank(7, 2), [&] { order.push_back(7); });
  q.schedule_ranked(10, delivery_rank(7, 1), [&] { order.push_back(6); });
  q.schedule_ranked(10, delivery_rank(3, 9), [&] { order.push_back(5); });
  q.schedule_ranked(10, kGlobalRank, [&] { order.push_back(1); });
  q.schedule(10, [&] { order.push_back(8); });  // inserted after deliveries,
                                                // still runs before them
  q.schedule_ranked(10, kGlobalRank, [&] { order.push_back(2); });
  q.schedule(10, [&] { order.push_back(9); });
  while (q.run_one()) {
  }
  // global (FIFO) < local (FIFO) < delivery (by frame, then receiver).
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 8, 9, 5, 6, 7}));
}

}  // namespace
}  // namespace cmap::sim

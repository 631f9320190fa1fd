#include "sim/pdes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace cmap::sim {
namespace {

// A two-partition engine with symmetric lookahead d between them.
std::vector<Time> two_part_delays(Time d) { return {0, d, d, 0}; }

TEST(PdesEngineDeathTest, SubNanosecondLookaheadAbortsNamingTheEntry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const Time bad : {Time{0}, Time{-4}}) {
    Simulator global;
    PdesEngine engine(global, 2, 1);
    EXPECT_DEATH(engine.set_min_delays({0, 5, bad, 0}),
                 "PdesEngine::min_delays\\[1\\]\\[0\\]")
        << bad;
  }
}

TEST(PdesEngineDeathTest, RunBeforeAnyMatrixAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Simulator global;
  PdesEngine engine(global, 2, 1);
  engine.partition_sim(0).at(5, [] {});
  EXPECT_DEATH(engine.run_until(10), "before set_min_delays");
}

TEST(PdesEngine, RunsPartitionEventsInTimeOrderAcrossPartitions) {
  Simulator global;
  PdesEngine engine(global, 2, 1);
  engine.set_min_delays(two_part_delays(10));
  std::vector<int> order;
  engine.partition_sim(0).at(30, [&] { order.push_back(3); });
  engine.partition_sim(1).at(10, [&] { order.push_back(1); });
  engine.partition_sim(0).at(20, [&] { order.push_back(2); });
  engine.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.partition_sim(0).now(), 100);
  EXPECT_EQ(engine.partition_sim(1).now(), 100);
  EXPECT_EQ(global.now(), 100);
}

TEST(PdesEngine, CrossGroupDeliveryArrivesThroughTheMailbox) {
  Simulator global;
  PdesEngine engine(global, 2, 1);
  engine.set_min_delays(two_part_delays(5));
  std::vector<std::pair<int, Time>> log;
  // Partition 0 transmits at t=10; the delivery lands on partition 1 at
  // t=15 (the lookahead), posted cross-partition through the mailbox.
  engine.partition_sim(0).at(10, [&] {
    log.emplace_back(0, engine.partition_sim(0).now());
    engine.schedule_delivery(0, 1, 15, /*frame_id=*/1, /*receiver=*/9, [&] {
      log.emplace_back(1, engine.partition_sim(1).now());
    });
  });
  engine.run_until(100);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], std::make_pair(0, Time{10}));
  EXPECT_EQ(log[1], std::make_pair(1, Time{15}));
  EXPECT_GE(engine.messages(), 1u);
}

TEST(PdesEngine, DeliveryPostedBeforeTheRunIsQueuedBeforeTheFirstWindow) {
  // A node that transmits while the world is being set up posts its
  // cross-partition deliveries outside any round. They must reach the
  // target queue before partition 1's first window (up to its own
  // reflection bound, t = 11) runs past their arrival at t = 3.
  Simulator global;
  PdesEngine engine(global, 2, 1);
  engine.set_min_delays(two_part_delays(5));
  std::vector<Time> seen;
  for (Time t = 1; t <= 20; ++t) {
    engine.partition_sim(1).at(t, [&] {
      seen.push_back(engine.partition_sim(1).now());
    });
  }
  engine.schedule_delivery(0, 1, 3, /*frame_id=*/1, /*receiver=*/4, [&] {
    seen.push_back(-engine.partition_sim(1).now());
  });
  engine.run_until(30);
  ASSERT_EQ(seen.size(), 21u);
  EXPECT_EQ(seen[2], 3);
  EXPECT_EQ(seen[3], -3);  // deliveries sort after same-tick local events
  EXPECT_EQ(seen[4], 4);
}

// Ping-pong between two partitions at exactly the lookahead spacing `d`:
// the regression shape for the closure windows — partition 1 starts
// empty, so only the shortest-path closure (0 -> 1 -> 0 reflection) stops
// partition 0 from running past the echoes of its own output. Partition 0
// also keeps dense local traffic pending, tempting the window to run far
// ahead of the unstarted ping-pong. Returns the arrival times.
std::vector<Time> ping_pong_arrivals(Time d) {
  Simulator global;
  PdesEngine engine(global, 2, 1);
  engine.set_min_delays(two_part_delays(d));
  std::vector<Time> arrivals;
  std::function<void(int, int)> ping = [&](int from, int to) {
    const Time at = engine.partition_sim(from).now() + d;
    engine.schedule_delivery(from, to, at,
                            /*frame_id=*/arrivals.size() + 1, /*receiver=*/0,
                            [&, from, to] {
                              arrivals.push_back(
                                  engine.partition_sim(to).now());
                              if (arrivals.size() < 8) ping(to, from);
                            });
  };
  for (Time t = 1; t <= 100; ++t) {
    engine.partition_sim(0).at(t, [] {});
  }
  engine.partition_sim(0).at(1, [&] { ping(0, 1); });
  engine.run_until(1000);
  return arrivals;
}

TEST(PdesEngine, ReflectedDeliveryChainsStaySound) {
  const std::vector<Time> arrivals = ping_pong_arrivals(7);
  ASSERT_EQ(arrivals.size(), 8u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], static_cast<Time>(1 + 7 * (i + 1)));
  }
}

TEST(PdesEngine, OneNanosecondLookaheadPingPongStaysSound) {
  // The tightest lookahead the propagation-delay floor allows: every
  // window is 1 ns wide around the ping-pong, and each echo lands on the
  // very next tick. A window one tick too wide schedules into the past
  // and aborts.
  const std::vector<Time> arrivals = ping_pong_arrivals(1);
  ASSERT_EQ(arrivals.size(), 8u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], static_cast<Time>(1 + (i + 1)));
  }
}

TEST(PdesEngine, GlobalEventsRunAloneAndTriggerTopologyRefresh) {
  Simulator global;
  PdesEngine engine(global, 2, 1);
  engine.set_min_delays(two_part_delays(50));
  int refreshes = 0;
  engine.set_topology_refresh([&] { ++refreshes; });
  std::vector<int> order;
  global.at_ranked(20, kGlobalRank, [&] { order.push_back(0); });
  engine.partition_sim(0).at(10, [&] { order.push_back(1); });
  engine.partition_sim(1).at(30, [&] { order.push_back(2); });
  engine.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(refreshes, 1);
}

TEST(PdesEngine, MultiThreadedRunMatchesSingleThreaded) {
  // Same event program on 1 and 2 worker threads; the arrival sequence
  // must be identical (threads only change who executes a window).
  const auto run_program = [](int threads) {
    Simulator global;
    PdesEngine engine(global, 4, threads);
    std::vector<Time> d(16, 20);
    for (int p = 0; p < 4; ++p) d[static_cast<std::size_t>(p) * 4 +
                                  static_cast<std::size_t>(p)] = 0;
    engine.set_min_delays(d);
    std::vector<std::pair<int, Time>> log;
    std::mutex log_mutex;
    for (int p = 0; p < 4; ++p) {
      for (Time t = 10; t <= 200; t += 10 + p) {
        engine.partition_sim(p).at(t, [&, p] {
          const std::lock_guard<std::mutex> lock(log_mutex);
          log.emplace_back(p, engine.partition_sim(p).now());
        });
      }
    }
    engine.run_until(300);
    std::sort(log.begin(), log.end(),
              [](const auto& x, const auto& y) {
                return std::tie(x.second, x.first) < std::tie(y.second, y.first);
              });
    return log;
  };
  EXPECT_EQ(run_program(1), run_program(2));
}

TEST(PdesEngine, MorePartitionsThanThreadsMatchesSingleThreaded) {
  // 5 partitions on 2 threads: partitions 0, 2, 4 share the driving thread
  // and 1, 3 the worker. Every partition keeps local events pending and
  // relays deliveries around the ring, so rounds mix busy and idle windows
  // and mailboxes fill in parallel. Each partition appends to its own log,
  // so the logs compare without sorting (and a partition run by two
  // threads in one round would race under TSan).
  static constexpr int kParts = 5;
  static constexpr Time kDelay = 20;
  const auto run_program = [](int threads) {
    Simulator global;
    PdesEngine engine(global, kParts, threads);
    std::vector<Time> d(kParts * kParts, kDelay);
    for (std::size_t p = 0; p < kParts; ++p) d[p * kParts + p] = 0;
    engine.set_min_delays(d);
    std::vector<std::vector<std::pair<Time, int>>> logs(kParts);
    std::vector<std::uint64_t> frames(kParts, 0);
    std::function<void(int, int)> relay = [&](int from, int hops) {
      const auto fp = static_cast<std::size_t>(from);
      const std::uint64_t frame = fp * 1000000 + ++frames[fp];
      const int to = (from + 1 + hops % 2) % kParts;
      const Time at = engine.partition_sim(from).now() + kDelay +
                      static_cast<Time>(frame % 7);
      engine.schedule_delivery(from, to, at, frame, /*receiver=*/0,
                               [&, to, hops] {
                                 logs[static_cast<std::size_t>(to)]
                                     .emplace_back(
                                         engine.partition_sim(to).now(),
                                         -hops);
                                 if (hops < 4) relay(to, hops + 1);
                               });
    };
    for (int p = 0; p < kParts; ++p) {
      for (Time t = 10; t <= 400; t += 10 + p) {
        engine.partition_sim(p).at(t, [&, p, t] {
          logs[static_cast<std::size_t>(p)].emplace_back(
              engine.partition_sim(p).now(), 1);
          if (t % 30 == 0) relay(p, 0);
        });
      }
    }
    engine.run_until(600);
    return logs;
  };
  // Every chain starts at a local event with t % 30 == 0 and makes five
  // hops, all landing before the horizon.
  std::size_t chains = 0;
  for (int p = 0; p < kParts; ++p) {
    for (Time t = 10; t <= 400; t += 10 + p) chains += t % 30 == 0 ? 1 : 0;
  }
  const auto serial = run_program(1);
  std::size_t deliveries = 0;
  for (const auto& log : serial) {
    EXPECT_FALSE(log.empty());
    for (const auto& entry : log) deliveries += entry.second <= 0 ? 1 : 0;
  }
  EXPECT_EQ(deliveries, 5 * chains);
  EXPECT_EQ(run_program(2), serial);
}

}  // namespace
}  // namespace cmap::sim

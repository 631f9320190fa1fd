// End-to-end CmapMac behaviour over a deterministic PHY (threshold error
// model, no fading): virtual-packet pipelining, windowed ACKs, conflict
// inference and deferral, broadcast, integrated mode.
#include "core/cmap_mac.h"

#include <gtest/gtest.h>

#include "core_test_util.h"
#include "sim/time.h"

namespace cmap::core {
namespace {

using testing::CmapWorld;

TEST(CmapMac, SingleLinkSaturatedThroughput) {
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {50, 0});
  w.saturate(a, 1, 2);
  const sim::Time dur = sim::seconds(2);
  w.simulator().run_until(dur);
  const double mbps = w.throughput_mbps(1, dur);
  // 32 x 1400 B per ~60.9 ms virtual-packet cycle ~= 5.9 Mbit/s.
  EXPECT_GT(mbps, 5.5);
  EXPECT_LT(mbps, 6.1);
  EXPECT_EQ(a.counters().retx_timeouts, 0u);
  EXPECT_GT(a.stats().acks_received, 20u);
  EXPECT_EQ(w.mac(1).stats().duplicates, 0u);
}

TEST(CmapMac, AckCarriesZeroLossOnCleanLink) {
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {50, 0});
  w.saturate(a, 1, 2);
  w.simulator().run_until(sim::seconds(1));
  EXPECT_EQ(a.loss_backoff().cw(), 0);  // never backed off
}

TEST(CmapMac, ExposedTerminalsTransmitConcurrently) {
  // Two flows whose receivers decode fine despite the other sender: the
  // senders hear each other but must NOT defer (no conflict map entries).
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {5, 0});
  CmapMac& x = w.add_node(3, {20, 0});
  w.add_node(4, {25, 0});
  w.saturate(a, 1, 2);
  w.saturate(x, 3, 4);
  const sim::Time dur = sim::seconds(3);
  w.simulator().run_until(dur);
  const double t1 = w.throughput_mbps(1, dur);
  const double t2 = w.throughput_mbps(3, dur);
  EXPECT_GT(t1, 5.0);
  EXPECT_GT(t2, 5.0);
  EXPECT_GT(t1 + t2, 10.0);  // ~2x a single link: spatial reuse worked
  EXPECT_EQ(a.counters().defer_events, 0u);
  EXPECT_EQ(x.counters().defer_events, 0u);
  EXPECT_EQ(a.defer_table().size(), 0u);
}

TEST(CmapMac, ConflictingFlowsLearnToDefer) {
  // X sits next to B: X's transmissions obliterate A->B, and A's
  // transmissions reach Y strongly enough to kill X->Y. Receivers must
  // infer the interferers, broadcast lists, and the senders must start
  // deferring to each other (the conflict-avoidance half of Fig. 13).
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {20, 0});   // B
  CmapMac& x = w.add_node(3, {25, 0});
  w.add_node(4, {50, 0});   // Y
  w.saturate(a, 1, 2);
  w.saturate(x, 3, 4);
  w.simulator().run_until(sim::seconds(12));

  EXPECT_GT(a.counters().defer_events + x.counters().defer_events, 10u);
  EXPECT_GT(a.defer_table().size() + x.defer_table().size(), 0u);
  // Receivers hold the evidence.
  const double lb = w.mac(1).interferer_tracker().loss_rate(1, 3);
  const double ly = w.mac(3).interferer_tracker().loss_rate(3, 1);
  EXPECT_TRUE(lb > 0.5 || ly > 0.5);
  // Interferer lists actually traveled to the senders.
  EXPECT_GT(a.counters().ilists_received + x.counters().ilists_received, 0u);
}

TEST(CmapMac, ConflictingFlowsStillMakeProgress) {
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {20, 0});
  CmapMac& x = w.add_node(3, {25, 0});
  w.add_node(4, {50, 0});
  w.saturate(a, 1, 2);
  w.saturate(x, 3, 4);
  w.simulator().run_until(sim::seconds(12));
  // After convergence the two flows interleave: aggregate should be a
  // healthy fraction of one link's rate (not collapsed to ~0).
  const double agg = w.throughput_mbps(1, sim::seconds(12)) +
                     w.throughput_mbps(3, sim::seconds(12));
  EXPECT_GT(agg, 2.0);
}

TEST(CmapMac, WindowFullTriggersTimeoutAndRetransmission) {
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {2000, 0});  // in energy range only: nothing ever decodes
  w.saturate(a, 1, 2);
  w.simulator().run_until(sim::seconds(20));
  EXPECT_GT(a.counters().retx_timeouts, 5u);
  EXPECT_GT(a.stats().retransmissions, 100u);
  EXPECT_GT(a.stats().dropped_retry_limit, 0u);
  EXPECT_TRUE(w.received(1).empty());
}

TEST(CmapMac, SurvivesTotalAckLoss) {
  // B decodes everything but is effectively mute (tiny tx power): the
  // windowed protocol keeps data flowing via window-timeout
  // retransmissions instead of deadlocking.
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  phy::RadioConfig mute;
  mute.tx_power_dbm = -30.0;
  w.add_node(2, {50, 0}, {}, mute);
  w.saturate(a, 1, 2);
  w.simulator().run_until(sim::seconds(20));
  EXPECT_GT(w.received(1).size(), 500u);
  EXPECT_GT(a.stats().ack_timeouts, 0u);
  EXPECT_GT(a.counters().retx_timeouts, 0u);
  EXPECT_GT(w.mac(1).stats().duplicates, 0u);  // retx of received packets
}

TEST(CmapMac, BroadcastReachesAllNeighboursWithoutAcks) {
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {10, 0});
  w.add_node(3, {15, 0});
  w.saturate(a, 1, phy::kBroadcastId);
  w.simulator().run_until(sim::seconds(2));
  EXPECT_GT(w.received(1).size(), 500u);
  EXPECT_GT(w.received(2).size(), 500u);
  EXPECT_EQ(w.mac(1).stats().acks_sent, 0u);
  EXPECT_EQ(w.mac(2).stats().acks_sent, 0u);
  EXPECT_EQ(a.counters().retx_timeouts, 0u);
  // The window never blocks broadcasts.
  EXPECT_GT(a.counters().vps_sent, 16u);
}

TEST(CmapMac, HeadersPopulateNeighboursOngoingLists) {
  CmapWorld w;
  CmapMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {50, 0});
  CmapMac& observer = w.add_node(3, {30, 10});
  w.saturate(a, 1, 2);
  int busy_samples = 0;
  const int total_samples = 40;
  for (int i = 1; i <= total_samples; ++i) {
    w.simulator().at(sim::milliseconds(50 * i), [&] {
      if (observer.ongoing_list().node_busy(1, w.simulator().now())) {
        ++busy_samples;
      }
    });
  }
  w.simulator().run_until(sim::seconds(2 + 1));
  // A transmits ~99% of the time; the observer should see it busy in the
  // overwhelming majority of samples.
  EXPECT_GT(busy_samples, total_samples * 3 / 5);
  EXPECT_GT(observer.counters().headers_heard, 20u);
  EXPECT_GT(observer.counters().trailers_heard, 20u);
}

TEST(CmapMac, Window1StallsFasterThanWindow8) {
  // Against an unreachable receiver, a window of one VP admits only 32
  // distinct packets before stalling (everything after that is window
  // timeout retransmission); a window of eight admits 256.
  auto unique_sent = [](int nwindow) {
    CmapWorld w;
    CmapConfig cfg;
    cfg.nwindow_vps = nwindow;
    CmapMac& a = w.add_node(1, {0, 0}, cfg);
    w.add_node(2, {2000, 0});  // unreachable
    w.saturate(a, 1, 2);
    w.simulator().run_until(sim::milliseconds(300));
    return a.stats().data_frames_sent - a.stats().retransmissions;
  };
  EXPECT_EQ(unique_sent(1), 32u);
  EXPECT_GT(unique_sent(8), 120u);
}

TEST(CmapMac, IntegratedModeDeliversAndStreamsHeaders) {
  CmapWorld w;
  const CmapConfig cfg = CmapConfig::integrated_defaults();
  CmapMac& a = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {50, 0}, cfg);
  CmapMac& observer = w.add_node(3, {25, 10}, cfg);
  w.saturate(a, 1, 2);
  const sim::Time dur = sim::seconds(2);
  w.simulator().run_until(dur);
  const double mbps = w.throughput_mbps(1, dur);
  EXPECT_GT(mbps, 4.0);
  EXPECT_LT(mbps, 6.0);
  EXPECT_GT(observer.counters().headers_heard, 100u);
  EXPECT_EQ(a.counters().retx_timeouts, 0u);
}

TEST(CmapMac, IntegratedSalvageFeedsConflictState) {
  // Same conflict geometry as ConflictingFlowsLearnToDefer but in
  // integrated mode, where delimiters must be salvaged from collisions.
  CmapWorld w;
  const CmapConfig cfg = CmapConfig::integrated_defaults();
  CmapMac& a = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {20, 0}, cfg);
  CmapMac& x = w.add_node(3, {25, 0}, cfg);
  w.add_node(4, {50, 0}, cfg);
  w.saturate(a, 1, 2);
  w.saturate(x, 3, 4);
  w.simulator().run_until(sim::seconds(12));
  EXPECT_GT(a.counters().defer_events + x.counters().defer_events, 10u);
}

TEST(CmapMac, PerDestinationQueuesAvoidHeadOfLineBlocking) {
  CmapWorld w;
  CmapConfig cfg;
  cfg.per_dest_queues = true;
  CmapMac& a = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {20, 0});            // B: conflicted by X
  CmapMac& x = w.add_node(3, {25, 0});
  w.add_node(4, {50, 0});            // Y
  w.add_node(5, {0, 5});             // C: clean alternative destination
  // A alternates packets to B and C.
  std::uint64_t id = 1'000'000;
  auto fill = [&] {
    while (a.queue_depth() < 128) {
      mac::Packet p;
      p.src = 1;
      p.dst = (id % 2 == 0) ? 2 : 5;
      p.id = ++id;
      p.bytes = 1400;
      if (!a.send(p)) break;
    }
  };
  a.set_drain_handler(fill);
  fill();
  w.saturate(x, 3, 4);
  w.simulator().run_until(sim::seconds(12));
  EXPECT_GT(w.received(1).size(), 100u);  // B still served
  EXPECT_GT(w.received(4).size(), 100u);  // C not starved during deferrals
}

TEST(CmapMac, QueueLimitRejectsExcess) {
  CmapWorld w;
  CmapConfig cfg;
  cfg.queue_limit = 10;
  CmapMac& a = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {50, 0});
  int accepted = 0;
  w.simulator().at(0, [&] {
    for (int i = 0; i < 400; ++i) {
      if (a.send(w.make_packet(1, 2))) ++accepted;
    }
  });
  w.simulator().run_until(sim::milliseconds(1));
  // One VP's worth may drain into the window immediately; the rest bounce.
  EXPECT_LE(accepted, 10 + 32);
  EXPECT_GT(a.stats().dropped_queue_full, 300u);
}

// The per-VP ACK bitmap holds 64 packets: a larger VP would resend its
// tail until retx_limit and drop it silently. An empty window never sends.
TEST(CmapConfigDeathTest, NvpktOutsideOneTo64AbortsNamingTheField) {
  for (const int bad : {0, -1, 65}) {
    CmapConfig cfg;
    cfg.nvpkt = bad;
    EXPECT_DEATH(CmapWorld().add_node(1, {0, 0}, cfg), "CmapConfig::nvpkt")
        << bad;
  }
}

TEST(CmapConfigDeathTest, EmptySendWindowAbortsNamingTheField) {
  for (const int bad : {0, -1}) {
    CmapConfig cfg;
    cfg.nwindow_vps = bad;
    EXPECT_DEATH(CmapWorld().add_node(1, {0, 0}, cfg),
                 "CmapConfig::nwindow_vps")
        << bad;
  }
}

TEST(CmapConfigValidation, BoundaryValuesAreAccepted) {
  CmapWorld w;
  CmapConfig cfg;
  cfg.nvpkt = 64;
  cfg.nwindow_vps = 1;
  EXPECT_EQ(w.add_node(1, {0, 0}, cfg).config().window_packets(), 64u);
}

}  // namespace
}  // namespace cmap::core

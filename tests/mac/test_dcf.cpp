#include "mac80211/dcf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "mac_test_util.h"
#include "phy/partition.h"
#include "sim/time.h"

namespace cmap::mac80211 {
namespace {

using testing::MacWorld;

TEST(Dcf, SinglePacketDeliveredAndAcked) {
  MacWorld w;
  DcfMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {50, 0});
  w.simulator().at(0, [&] { a.send(w.make_packet(1, 2)); });
  w.simulator().run();
  ASSERT_EQ(w.received(1).size(), 1u);
  EXPECT_EQ(a.stats().acks_received, 1u);
  EXPECT_EQ(a.stats().ack_timeouts, 0u);
  EXPECT_EQ(a.queue_depth(), 0u);
  EXPECT_EQ(w.mac(1).stats().acks_sent, 1u);
}

TEST(Dcf, SaturatedLinkApproachesNominalThroughput) {
  MacWorld w;
  DcfMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {50, 0});
  w.saturate(a, 1, 2);
  const sim::Time dur = sim::seconds(2);
  w.simulator().run_until(dur);
  const double mbps = w.throughput_bps(1, dur) / 1e6;
  // 1400 B data + ACK + DIFS + avg backoff at 6 Mbit/s ≈ 5.3 Mbit/s.
  EXPECT_GT(mbps, 4.6);
  EXPECT_LT(mbps, 5.8);
}

TEST(Dcf, CarrierSenseSerializesNeighbours) {
  MacWorld w;
  DcfMac& a = w.add_node(1, {0, 0});
  DcfMac& b = w.add_node(2, {10, 0});
  w.add_node(3, {5, 0});  // receiver between two in-range senders
  w.saturate(a, 1, 3);
  w.saturate(b, 2, 3);
  const sim::Time dur = sim::seconds(2);
  w.simulator().run_until(dur);
  const double mbps = w.throughput_bps(2, dur) / 1e6;
  // Two serialized senders share one link's worth of airtime.
  EXPECT_GT(mbps, 4.0);
  EXPECT_LT(mbps, 5.8);
  // Collisions happen only when both pick the same backoff slot; Bianchi's
  // model puts that near tau = 2/(CW+1) ~ 12% for two saturated stations.
  const auto& sa = a.stats();
  const auto& sb = b.stats();
  const double retry_frac =
      static_cast<double>(sa.retransmissions + sb.retransmissions) /
      static_cast<double>(sa.data_frames_sent + sb.data_frames_sent);
  EXPECT_GT(retry_frac, 0.01);
  EXPECT_LT(retry_frac, 0.25);
}

TEST(Dcf, UnreachableDestinationHitsRetryLimit) {
  MacWorld w;
  DcfConfig cfg;
  DcfMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {900, 0});  // below sensitivity: nothing decodes
  w.simulator().at(0, [&] { a.send(w.make_packet(1, 2)); });
  w.simulator().run();
  const auto& s = a.stats();
  EXPECT_EQ(s.dropped_retry_limit, 1u);
  EXPECT_EQ(s.data_frames_sent, 1u + cfg.retry_limit);
  EXPECT_EQ(s.retransmissions, static_cast<std::uint64_t>(cfg.retry_limit));
  EXPECT_EQ(s.ack_timeouts, 1u + cfg.retry_limit);
  EXPECT_TRUE(w.received(1).empty());
}

TEST(Dcf, ContentionWindowGrowsOnTimeoutAndResetsAfterPacketFate) {
  MacWorld w;
  DcfMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {900, 0});  // unreachable
  int cw_peak = 0;
  for (int i = 1; i <= 100; ++i) {
    w.simulator().at(sim::milliseconds(i),
                     [&] { cw_peak = std::max(cw_peak, a.current_cw()); });
  }
  w.simulator().at(0, [&] { a.send(w.make_packet(1, 2)); });
  w.simulator().run();
  EXPECT_GT(cw_peak, 15);          // grew during retries
  EXPECT_EQ(a.current_cw(), 15);   // reset once the packet was dropped
}

TEST(Dcf, CwIsCappedAtMax) {
  MacWorld w;
  DcfConfig cfg;
  cfg.retry_limit = 12;
  DcfMac& a = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {900, 0});
  w.simulator().at(0, [&] { a.send(w.make_packet(1, 2)); });
  int cw_peak = 0;
  for (int i = 1; i < 400; ++i) {
    w.simulator().at(sim::milliseconds(i),
                     [&] { cw_peak = std::max(cw_peak, a.current_cw()); });
  }
  w.simulator().run();
  EXPECT_EQ(cw_peak, 1023);
}

TEST(Dcf, BroadcastIsUnacknowledgedFireAndForget) {
  MacWorld w;
  DcfMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {50, 0});
  w.add_node(3, {60, 0});
  w.simulator().at(0, [&] {
    a.send(w.make_packet(1, phy::kBroadcastId));
  });
  w.simulator().run();
  EXPECT_EQ(w.received(1).size(), 1u);
  EXPECT_EQ(w.received(2).size(), 1u);
  EXPECT_EQ(a.stats().ack_timeouts, 0u);
  EXPECT_EQ(a.stats().acks_received, 0u);
  EXPECT_EQ(w.mac(1).stats().acks_sent, 0u);
}

TEST(Dcf, NoAckModeSkipsRetries) {
  MacWorld w;
  DcfConfig cfg;
  cfg.acks = false;
  DcfMac& a = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {50, 0}, cfg);
  w.simulator().at(0, [&] { a.send(w.make_packet(1, 2)); });
  w.simulator().run();
  EXPECT_EQ(w.received(1).size(), 1u);
  EXPECT_EQ(a.stats().ack_timeouts, 0u);
  EXPECT_EQ(w.mac(1).stats().acks_sent, 0u);
  EXPECT_EQ(a.stats().data_frames_sent, 1u);
}

TEST(Dcf, QueueLimitDropsExcess) {
  MacWorld w;
  DcfConfig cfg;
  cfg.queue_limit = 4;
  DcfMac& a = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {50, 0});
  w.simulator().at(0, [&] {
    for (int i = 0; i < 9; ++i) a.send(w.make_packet(1, 2));
  });
  w.simulator().run();
  EXPECT_EQ(a.stats().dropped_queue_full, 5u);
  EXPECT_EQ(a.stats().enqueued, 4u);
  EXPECT_EQ(w.received(1).size(), 4u);
}

TEST(Dcf, CsOffTransmitsOverOngoingTraffic) {
  // With carrier sense off, the second sender does not wait for the first:
  // both saturate and their frames collide at a receiver between them.
  MacWorld w;
  DcfConfig off;
  off.carrier_sense = false;
  off.acks = false;
  DcfMac& a = w.add_node(1, {0, 0}, off);
  DcfMac& b = w.add_node(2, {10, 0}, off);
  w.add_node(3, {5, 0}, off);
  w.saturate(a, 1, 3);
  w.saturate(b, 2, 3);
  const sim::Time dur = sim::seconds(1);
  w.simulator().run_until(dur);
  // Equidistant equal-power senders: nearly everything collides.
  const double mbps = w.throughput_bps(2, dur) / 1e6;
  EXPECT_LT(mbps, 1.0);
  // But both senders kept transmitting at full rate (no deferral).
  EXPECT_GT(a.stats().data_frames_sent, 400u);
  EXPECT_GT(b.stats().data_frames_sent, 400u);
}

TEST(Dcf, CsOnAvoidsThoseCollisions) {
  MacWorld w;
  DcfConfig on;  // defaults: CS + acks
  DcfMac& a = w.add_node(1, {0, 0}, on);
  DcfMac& b = w.add_node(2, {10, 0}, on);
  w.add_node(3, {5, 0}, on);
  w.saturate(a, 1, 3);
  w.saturate(b, 2, 3);
  const sim::Time dur = sim::seconds(1);
  w.simulator().run_until(dur);
  const double mbps = w.throughput_bps(2, dur) / 1e6;
  EXPECT_GT(mbps, 4.0);
}

TEST(Dcf, DrainHandlerKeepsQueueBacklogged) {
  MacWorld w;
  DcfMac& a = w.add_node(1, {0, 0});
  w.add_node(2, {50, 0});
  w.saturate(a, 1, 2);
  w.simulator().run_until(sim::milliseconds(200));
  EXPECT_GT(a.queue_depth(), 0u);
  EXPECT_GT(w.received(1).size(), 50u);
}

TEST(Dcf, AckTimeoutCoversSifsPlusAckAirtime) {
  DcfConfig cfg;
  EXPECT_GT(cfg.ack_timeout(),
            cfg.sifs + phy::frame_airtime(cfg.control_rate, mac::kAckBytes));
  EXPECT_LT(cfg.ack_timeout(), sim::milliseconds(1));
}

TEST(Dcf, HiddenSendersCollideAtSharedReceiver) {
  // Classic hidden-terminal: senders that cannot hear each other, both in
  // range of the receiver. Under free-space propagation sense range is 2x
  // decode range, so collinear hidden pairs cannot exist with default
  // radios; deafen the *senders* (raised sensitivity/CS thresholds, the
  // equivalent of a wall between them) to construct the situation.
  MacWorld w;
  phy::RadioConfig deaf;
  deaf.sensitivity_dbm = -80.0;
  deaf.cs_signal_dbm = -80.0;
  deaf.energy_detect_dbm = -70.0;
  DcfMac& a = w.add_node(1, {0, 0}, {}, deaf);
  DcfMac& b = w.add_node(2, {300, 0}, {}, deaf);  // -86 dBm at a: unheard
  w.add_node(3, {150, 0});  // -80.2 dBm from each: decodes in isolation
  w.saturate(a, 1, 3);
  w.saturate(b, 2, 3);
  const sim::Time dur = sim::seconds(1);
  w.simulator().run_until(dur);
  const double mbps = w.throughput_bps(2, dur) / 1e6;
  EXPECT_LT(mbps, 4.0);  // far below a clean 5.3 Mbit/s link
  // Both senders burned airtime regardless (no carrier deference).
  EXPECT_GT(a.stats().data_frames_sent, 100u);
  EXPECT_GT(b.stats().data_frames_sent, 100u);
}

// ---- The contention timer against a per-slot countdown ----

// Stands between a radio and its DcfMac: forwards every callback the MAC
// handles and records the start of each data frame the radio sent.
class DataTxRecorder final : public phy::RadioListener {
 public:
  DataTxRecorder(DcfMac& mac, sim::Simulator& simulator)
      : mac_(mac), sim_(simulator) {}

  void on_rx_end(const phy::Frame& frame,
                 const phy::RxResult& result) override {
    mac_.on_rx_end(frame, result);
  }
  void on_cca(bool busy) override { mac_.on_cca(busy); }
  void on_tx_end(const phy::Frame& frame) override {
    if (dynamic_cast<const mac::DataFrame*>(frame.payload.get()) != nullptr) {
      starts.push_back(sim_.now() - frame.duration);
    }
    mac_.on_tx_end(frame);
  }

  std::vector<sim::Time> starts;

 private:
  DcfMac& mac_;
  sim::Simulator& sim_;
};

// One contention, counted down one slot at a time: it restarts at
// `resume`, the medium must stay idle through DIFS, and then each slot
// boundary reached no later than `freeze` takes one slot off `slots` (a
// boundary at the freeze instant counts). Returns the instant the count
// reaches zero, if that comes no later than `freeze`.
std::optional<sim::Time> count_down(const DcfConfig& cfg, sim::Time resume,
                                    int& slots, sim::Time freeze) {
  sim::Time boundary = resume + cfg.difs();
  if (freeze < boundary) return std::nullopt;
  while (slots > 0) {
    if (boundary + cfg.slot > freeze) return std::nullopt;
    boundary += cfg.slot;
    --slots;
  }
  return boundary;
}

phy::Frame bare_frame(phy::WifiRate rate, std::size_t bytes) {
  phy::Frame frame;
  frame.rate = rate;
  frame.segments = {{phy::SegmentKind::kWhole, bytes}};
  return frame;
}

constexpr std::size_t kSmallPacket = 100;  // bytes: short frames, many edges

// Carrier sense on. A jammer's frames busy the subject's carrier; each
// arrival is placed relative to the subject's current contention: inside
// DIFS, exactly on a slot boundary (the last one is the attempt instant),
// one ns either side of a boundary, or after the attempt.
void check_carrier_timeline(std::uint64_t seed) {
  SCOPED_TRACE(seed);
  MacWorld w;
  const DcfConfig cfg;
  DcfMac& subject = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {30, 0});  // the jammer: its radio is driven directly
  DataTxRecorder recorder(subject, w.simulator());
  w.radio(0).set_listener(&recorder);
  const sim::Time flight = phy::propagation_delay_ns(30.0);
  const sim::Time data_airtime = phy::frame_airtime(
      cfg.data_rate, kSmallPacket + mac::kDataHeaderBytes);
  sim::Rng backoffs = MacWorld::dcf_rng(1);
  const auto draw = [&] {
    return static_cast<int>(backoffs.uniform_int(0, cfg.cw_min));
  };
  sim::Rng pick(seed);

  const sim::Time start = sim::milliseconds(1);
  w.simulator().at(start, [&] {
    w.saturate(subject, 1, phy::kBroadcastId, kSmallPacket);
  });
  std::deque<phy::Frame> jams;  // stable addresses for the events
  std::vector<sim::Time> expected;
  sim::Time resume = start;
  int slots = draw();
  for (int edge = 0; edge < 120; ++edge) {
    const sim::Time difs_end = resume + cfg.difs();
    const sim::Time boundary = difs_end + pick.uniform_int(0, slots) * cfg.slot;
    sim::Time arrival = 0;
    switch (pick.uniform_int(0, 3)) {
      case 0:
        arrival = resume + pick.uniform_int(1, cfg.difs() - 1);
        break;
      case 1:
        arrival = boundary;
        break;
      case 2:
        arrival = boundary + (pick.uniform_int(0, 1) == 0 ? -1 : 1);
        break;
      default:
        arrival = difs_end + slots * cfg.slot +
                  pick.uniform_int(1, 2 * data_airtime);
        break;
    }
    const phy::Frame& jam = jams.emplace_back(bare_frame(
        phy::WifiRate::k6Mbps,
        static_cast<std::size_t>(pick.uniform_int(mac::kAckBytes, 300))));
    const sim::Time length = phy::frame_airtime(jam.rate, jam.size_bytes());
    w.simulator().at(arrival - flight,
                     [&w, &jam] { w.radio(1).transmit(jam); });
    // Run the countdown up to the arrival: the subject may send (and then
    // contend for its next packet) before it; the arrival freezes whatever
    // contention is left until the jammer's frame is off the air.
    for (;;) {
      const auto tx = count_down(cfg, resume, slots, arrival);
      if (!tx) {
        resume = arrival + length;
        break;
      }
      expected.push_back(*tx);
      resume = *tx + data_airtime;
      slots = draw();
      if (resume >= arrival) {
        resume = std::max(resume, arrival + length);
        break;
      }
    }
  }
  // Two more accesses with the jammer silent.
  for (int i = 0; i < 2; ++i) {
    expected.push_back(*count_down(cfg, resume, slots, sim::kTimeForever));
    resume = expected.back() + data_airtime;
    slots = draw();
  }
  w.simulator().run_until(expected.back() + data_airtime);
  EXPECT_EQ(recorder.starts, expected);
}

// Carrier sense off, acks on: a peer's unicast frame makes the subject
// send an ACK `ack_at` while its single packet contends, starting at
// `start`. The ACK freezes the countdown; if the count ran out first
// (after the peer's frame ended), the attempt waits for the ACK.
void check_ack_freeze(sim::Time start, sim::Time ack_at) {
  SCOPED_TRACE(ack_at - start);
  MacWorld w;
  DcfConfig cfg;
  cfg.carrier_sense = false;
  DcfMac& subject = w.add_node(1, {0, 0}, cfg);
  w.add_node(2, {20, 0});  // the peer: its radio is driven directly
  DataTxRecorder recorder(subject, w.simulator());
  w.radio(0).set_listener(&recorder);
  const sim::Time flight = phy::propagation_delay_ns(20.0);
  const sim::Time ack_airtime =
      phy::frame_airtime(cfg.control_rate, mac::kAckBytes);

  auto data = std::make_shared<mac::DataFrame>();
  data->src = 2;
  data->dst = 1;
  data->seq = 1;
  data->packet = w.make_packet(2, 1, kSmallPacket);
  phy::Frame frame = bare_frame(cfg.data_rate, data->wire_bytes());
  frame.payload = data;
  const sim::Time rx_end = ack_at - cfg.sifs;
  const sim::Time arrival =
      rx_end - phy::frame_airtime(frame.rate, frame.size_bytes());
  w.simulator().at(arrival - flight,
                   [&w, &frame] { w.radio(1).transmit(frame); });
  w.simulator().at(start, [&] {
    subject.send(w.make_packet(1, phy::kBroadcastId, kSmallPacket));
  });

  int slots = static_cast<int>(MacWorld::dcf_rng(1).uniform_int(0, cfg.cw_min));
  sim::Time expected = 0;
  if (const auto tx = count_down(cfg, start, slots, ack_at)) {
    ASSERT_GT(*tx, rx_end) << "the subject would talk over the peer";
    expected = ack_at + ack_airtime + cfg.difs();
  } else {
    expected = *count_down(cfg, ack_at + ack_airtime, slots,
                           sim::kTimeForever);
  }
  w.simulator().run();
  EXPECT_EQ(subject.stats().acks_sent, 1u);
  EXPECT_EQ(recorder.starts, std::vector<sim::Time>{expected});
}

TEST(DcfMac, BackoffMatchesAPerSlotCountdown) {
  const DcfConfig cfg;
  const int n =
      static_cast<int>(MacWorld::dcf_rng(1).uniform_int(0, cfg.cw_min));
  ASSERT_GE(n, 3) << "node 1's first backoff is too short to test";

  // Uninterrupted: one contention event carries the whole access, and the
  // frame leaves DIFS + n slots after the packet arrived.
  {
    MacWorld w;
    DcfMac& subject = w.add_node(1, {0, 0}, cfg);
    DataTxRecorder recorder(subject, w.simulator());
    w.radio(0).set_listener(&recorder);
    subject.send(w.make_packet(1, phy::kBroadcastId, kSmallPacket));
    w.simulator().run();
    EXPECT_EQ(recorder.starts,
              std::vector<sim::Time>{cfg.difs() + n * cfg.slot});
    EXPECT_EQ(w.simulator().events_executed(), 2u);  // contention + tx end
  }

  for (std::uint64_t seed = 1; seed <= 6; ++seed) check_carrier_timeline(seed);

  const sim::Time start = sim::milliseconds(1);
  const sim::Time difs_end = start + cfg.difs();
  check_ack_freeze(start, start + cfg.difs() / 2);  // inside DIFS
  for (int k = 0; k < n; ++k) {
    const sim::Time boundary = difs_end + k * cfg.slot;
    check_ack_freeze(start, boundary);
    check_ack_freeze(start, boundary - 1);
    check_ack_freeze(start, boundary + 1);
  }
  // The count runs out between the peer's frame end and the ACK, or at the
  // ACK's own instant: the attempt is postponed until the ACK is sent.
  const sim::Time last = difs_end + n * cfg.slot;
  check_ack_freeze(start, last);
  check_ack_freeze(start, last + cfg.sifs / 2);
}

TEST(DcfConfigDeathTest, InvalidFieldAbortsNamingTheField) {
  const std::pair<const char*, void (*)(DcfConfig&)> cases[] = {
      {"DcfConfig::cw_min", [](DcfConfig& c) { c.cw_min = -1; }},
      {"DcfConfig::cw_max", [](DcfConfig& c) { c.cw_max = c.cw_min - 1; }},
      {"DcfConfig::retry_limit", [](DcfConfig& c) { c.retry_limit = -1; }},
      {"DcfConfig::queue_limit", [](DcfConfig& c) { c.queue_limit = 0; }},
      {"DcfConfig::slot", [](DcfConfig& c) { c.slot = 0; }},
      {"DcfConfig::sifs", [](DcfConfig& c) { c.sifs = -1; }},
  };
  for (const auto& [field, edit] : cases) {
    DcfConfig cfg;
    edit(cfg);
    EXPECT_DEATH(MacWorld().add_node(1, {0, 0}, cfg), field) << field;
  }
}

TEST(DcfConfigValidation, BoundaryValuesAndTestOverridesAreAccepted) {
  MacWorld w;
  DcfConfig edge;
  edge.cw_min = 0;
  edge.cw_max = 0;
  edge.retry_limit = 0;
  edge.queue_limit = 1;
  edge.slot = 1;
  edge.sifs = 1;
  EXPECT_EQ(w.add_node(1, {0, 0}, edge).config().cw_max, 0);
  // The overrides other tests in this file rely on.
  DcfConfig retries;
  retries.retry_limit = 12;
  EXPECT_EQ(w.add_node(2, {10, 0}, retries).config().retry_limit, 12);
  DcfConfig small_queue;
  small_queue.queue_limit = 4;
  EXPECT_EQ(w.add_node(3, {20, 0}, small_queue).config().queue_limit, 4u);
}

}  // namespace
}  // namespace cmap::mac80211

#include "phy/radio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mac80211/dcf.h"
#include "phy/medium.h"
#include "phy/partition.h"
#include "phy/units.h"
#include "phy_test_util.h"
#include "sim/time.h"

namespace cmap::phy {
namespace {

using testing::Cca;
using testing::RecordingListener;
using testing::World;

std::shared_ptr<const NistErrorModel> nist() {
  return std::make_shared<NistErrorModel>();
}
std::shared_ptr<const ThresholdErrorModel> threshold(double db = 3.0) {
  return std::make_shared<ThresholdErrorModel>(db);
}

TEST(Radio, CleanDeliveryDecodesAllSegments) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});  // rx ~ -70.7 dBm, SINR ~ 23 dB
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().run();

  auto& rx = w.listener(1);
  ASSERT_EQ(rx.rx_starts.size(), 1u);
  ASSERT_EQ(rx.rx_ends.size(), 1u);
  EXPECT_TRUE(rx.rx_ends[0].result.all_ok());
  EXPECT_EQ(rx.rx_ends[0].frame.tx_node, 1u);
  EXPECT_NEAR(rx.rx_ends[0].result.rssi_dbm, -70.7, 0.5);
  ASSERT_EQ(w.listener(0).tx_ends.size(), 1u);
  EXPECT_EQ(w.radio(1).counters().rx_ok, 1u);
}

TEST(Radio, FrameDurationMatchesAirtime) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  sim::Time rx_at = -1;
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().run();
  rx_at = w.simulator().now();
  // 1892 us airtime + ~167 ns propagation.
  EXPECT_NEAR(sim::to_microseconds(rx_at), 1892.0, 1.0);
}

TEST(Radio, SimultaneousEqualPowerFramesCollide) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  Radio& c = w.add_radio(3, {100, 0});
  w.add_radio(2, {50, 0});  // equidistant: SINR ~ 0 dB from each
  w.simulator().at(0, [&] {
    a.transmit(World::whole_frame(1400));
    c.transmit(World::whole_frame(1400));
  });
  w.simulator().run();
  auto& rx = w.listener(2);
  EXPECT_TRUE(rx.rx_ends.empty());  // preamble sync impossible at 0 dB
  EXPECT_GE(w.radio(2).counters().preamble_failures, 1u);
}

TEST(Radio, CaptureRelocksOntoMuchStrongerFrame) {
  World w(nist());
  Radio& weak = w.add_radio(1, {0, 0});
  Radio& strong = w.add_radio(2, {210, 0});
  w.add_radio(3, {200, 0});  // -82.7 dBm from weak, -56.7 dBm from strong
  w.simulator().at(0, [&] { weak.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::milliseconds(1),
                   [&] { strong.transmit(World::whole_frame(1400)); });
  w.simulator().run();

  auto& rx = w.listener(2);
  ASSERT_EQ(rx.rx_ends.size(), 1u);
  EXPECT_EQ(rx.rx_ends[0].frame.tx_node, 2u);
  EXPECT_TRUE(rx.rx_ends[0].result.all_ok());
  EXPECT_EQ(w.radio(2).counters().aborted_by_capture, 1u);
}

TEST(Radio, CaptureDisabledKeepsWeakLock) {
  World w(nist());
  RadioConfig cfg;
  cfg.capture_enabled = false;
  Radio& weak = w.add_radio(1, {0, 0});
  Radio& strong = w.add_radio(2, {210, 0});
  w.add_radio(3, {200, 0}, cfg);
  w.simulator().at(0, [&] { weak.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::milliseconds(1),
                   [&] { strong.transmit(World::whole_frame(1400)); });
  w.simulator().run();

  auto& rx = w.listener(2);
  ASSERT_EQ(rx.rx_ends.size(), 1u);
  EXPECT_EQ(rx.rx_ends[0].frame.tx_node, 1u);  // stayed on the weak frame
  EXPECT_FALSE(rx.rx_ends[0].result.all_ok());  // which the strong one killed
  EXPECT_EQ(w.radio(2).counters().aborted_by_capture, 0u);
}

TEST(Radio, TransmitDuringReceptionAbortsIt) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {50, 0});
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::microseconds(500),
                   [&] { b.transmit(World::whole_frame(100)); });
  w.simulator().run();
  EXPECT_TRUE(w.listener(1).rx_ends.empty());
  EXPECT_EQ(w.radio(1).counters().aborted_by_tx, 1u);
}

TEST(Radio, CarrierBusyDuringNeighbourTransmission) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {50, 0});
  bool busy_mid = false, busy_after = true;
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::microseconds(900), [&] { busy_mid = b.carrier_busy(); });
  w.simulator().at(sim::milliseconds(3), [&] { busy_after = b.carrier_busy(); });
  w.simulator().run();
  EXPECT_TRUE(busy_mid);
  EXPECT_FALSE(busy_after);
}

TEST(Radio, CcaCallbacksFireOnEdges) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().run();
  const auto& changes = w.listener(1).cca_changes;
  ASSERT_GE(changes.size(), 2u);
  EXPECT_TRUE(changes.front());
  EXPECT_FALSE(changes.back());
}

// ---- Carrier sense on demand: radios that never asked for CCA edges ----

TEST(Radio, UnwatchedRadioGetsNoCcaCallbacksAndOneEventFewerPerDelivery) {
  // Three frames from a, each delivered to b and c: the same outcomes
  // either way. Each frame turns an idle watched receiver busy and so arms
  // its CCA wake; an unwatched radio saves that event.
  const auto run = [](Cca cca, std::uint64_t* events) {
    auto w = std::make_unique<World>(nist());
    Radio& a = w->add_radio(1, {0, 0}, {}, cca);
    w->add_radio(2, {50, 0}, {}, cca);
    w->add_radio(3, {100, 0}, {}, cca);
    const sim::Time d = frame_airtime(WifiRate::k6Mbps, 500) +
                        sim::microseconds(100);
    for (int i = 0; i < 3; ++i) {
      w->simulator().at(i * d, [&a] { a.transmit(World::whole_frame(500)); });
    }
    w->simulator().run();
    *events = w->simulator().events_executed();
    return w;
  };
  std::uint64_t watched_events = 0, unwatched_events = 0;
  const auto watched = run(Cca::kWatched, &watched_events);
  const auto unwatched = run(Cca::kUnwatched, &unwatched_events);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(watched->listener(i).cca_changes.empty()) << i;
    EXPECT_TRUE(unwatched->listener(i).cca_changes.empty()) << i;
    EXPECT_EQ(unwatched->listener(i).rx_ends.size(),
              watched->listener(i).rx_ends.size())
        << i;
  }
  EXPECT_EQ(unwatched->radio(2).counters().rx_ok, 3u);
  EXPECT_EQ(watched_events - unwatched_events, 3u * 2u);
}

TEST(Radio, UnwatchedCarrierBusyStillAnswersExactly) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0}, {}, Cca::kUnwatched);
  // Too deaf to lock, so only the preamble-CS threshold makes it busy.
  RadioConfig deaf;
  deaf.sensitivity_dbm = -60.0;
  Radio& b = w.add_radio(2, {50, 0}, deaf, Cca::kUnwatched);
  bool busy_mid = false, busy_after = true;
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::microseconds(900),
                   [&] { busy_mid = b.carrier_busy(); });
  w.simulator().at(sim::milliseconds(3),
                   [&] { busy_after = b.carrier_busy(); });
  w.simulator().run();
  EXPECT_TRUE(busy_mid);
  EXPECT_FALSE(busy_after);
  EXPECT_EQ(b.counters().locks, 0u);
  EXPECT_TRUE(w.listener(1).cca_changes.empty());
}

TEST(Radio, OptInMidFrameReportsBusyToIdleAsFirstEdge) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  // Too deaf to lock: no reception ends the frame for it, so only the
  // CCA wake armed at opt-in can report the idle edge.
  RadioConfig deaf;
  deaf.sensitivity_dbm = -60.0;
  Radio& b = w.add_radio(2, {50, 0}, deaf, Cca::kUnwatched);
  const auto& changes = w.listener(1).cca_changes;
  std::size_t edges_before_end = 99;
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::microseconds(900), [&] {
    ASSERT_TRUE(b.carrier_busy());
    b.request_cca_notifications();
    b.request_cca_notifications();  // idempotent: no second wake
  });
  // a's frame airs 0 .. 1892 us.
  w.simulator().at(sim::microseconds(1800),
                   [&] { edges_before_end = changes.size(); });
  const std::uint64_t before = w.simulator().events_executed();
  w.simulator().run();
  EXPECT_EQ(edges_before_end, 0u);
  EXPECT_EQ(changes, std::vector<bool>{false});
  EXPECT_FALSE(b.carrier_busy());
  // transmit, tx end, the opt-in, the probe and the one CCA wake the
  // opt-in armed. The deaf radio's arrival is inert: no event.
  EXPECT_EQ(w.simulator().events_executed() - before, 5u);
}

TEST(Radio, DcfOptsInToCcaOnlyWithCarrierSense) {
  for (const bool carrier_sense : {true, false}) {
    World w(nist());
    Radio& a = w.add_radio(1, {0, 0}, {}, Cca::kUnwatched);
    Radio& b = w.add_radio(2, {50, 0}, {}, Cca::kUnwatched);
    mac80211::DcfConfig cfg;
    cfg.carrier_sense = carrier_sense;
    mac80211::DcfMac dcf(w.simulator(), b, cfg, sim::Rng(7));
    // Hand the radio back to the recorder: the opt-in, if the MAC made
    // it, stays with the radio.
    b.set_listener(&w.listener(1));
    w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
    w.simulator().run();
    EXPECT_EQ(w.listener(1).cca_changes.empty(), !carrier_sense)
        << "carrier_sense " << carrier_sense;
    EXPECT_EQ(w.listener(1).rx_ends.size(), 1u);
  }
}

// ---- Inert arrivals: deliveries that can only add interference ----

// How many events `fn` put on the queue. The tests' queues stay far below
// the size at which stale keys are compacted.
template <class F>
std::size_t events_scheduled_by(World& w, F&& fn) {
  const std::size_t before = w.simulator().queue().heap_size();
  fn();
  return w.simulator().queue().heap_size() - before;
}

// Records the instant of every CCA edge.
class CcaClock : public RadioListener {
 public:
  explicit CcaClock(const sim::Simulator& sim) : sim_(sim) {}
  void on_cca(bool busy) override { edges.emplace_back(sim_.now(), busy); }
  std::vector<std::pair<sim::Time, bool>> edges;

 private:
  const sim::Simulator& sim_;
};

RadioConfig deaf_config() {
  RadioConfig deaf;
  deaf.sensitivity_dbm = -60.0;  // a's -70.7 dBm at 50 m stays below it
  return deaf;
}

TEST(Radio, SubSensitivityArrivalAtAnIdleRadioIsEventlessOnlyIfUnwatched) {
  // Nothing holds b's carrier when a's frame arrives, so a watching b
  // needs the arrival event to report the busy edge.
  for (const Cca cca : {Cca::kUnwatched, Cca::kWatched}) {
    World w(nist());
    Radio& a = w.add_radio(1, {0, 0}, {}, Cca::kUnwatched);
    Radio& b = w.add_radio(2, {50, 0}, deaf_config(), cca);
    std::size_t scheduled = 0, tracked = 0;
    w.simulator().at(0, [&] {
      scheduled = events_scheduled_by(
          w, [&] { a.transmit(World::whole_frame(1400)); });
      tracked = b.interference().signals().size();
    });
    w.simulator().run();
    const bool watched = cca == Cca::kWatched;
    // a's tx end, plus b's arrival event unless the arrival is inert, in
    // which case the signal is tracked before it starts.
    EXPECT_EQ(scheduled, watched ? 2u : 1u) << "watched " << watched;
    EXPECT_EQ(tracked, watched ? 0u : 1u) << "watched " << watched;
    EXPECT_EQ(b.counters().locks, 0u);
    EXPECT_EQ(b.interference().signals().size(), 1u);
    EXPECT_EQ(w.listener(1).cca_changes.size(), watched ? 2u : 0u);
  }
}

// Levels for a watched b at the origin, with s 20 m east (-62.7 dBm at b)
// and a 50 m west (-70.7 dBm): s's frames hold b's carrier by preamble CS
// without locking it, a's are below both levels but above energy detect.
RadioConfig cover_config() {
  RadioConfig cfg = deaf_config();
  cfg.cs_signal_dbm = -65.0;
  cfg.energy_detect_dbm = -75.0;
  return cfg;
}

TEST(Radio, WatchedRadioTakesNoEventForAnArrivalItsCarrierIsBusyAcross) {
  // a's frame reaches b while a strong frame from s, or b's own
  // transmission, holds b's carrier past the arrival's start. The arrival
  // can move neither a lock nor the carrier, so it takes no event and is
  // tracked before it starts. During b's own transmission a frame b could
  // lock onto is covered too, as long as it stays below preamble CS.
  struct Case {
    const char* label;
    bool own_tx;
    double sensitivity_dbm;
  };
  const sim::Time airtime = frame_airtime(WifiRate::k6Mbps, 1400);
  const sim::Time sent = sim::microseconds(500);  // a's transmit
  const sim::Time a_end = sent + propagation_delay_ns(50.0) + airtime;
  for (const Case c : {Case{"strong cover", false, -60.0},
                       Case{"own tx", true, -60.0},
                       Case{"own tx, lockable", true, -92.0}}) {
    World w(nist());
    Radio& s = w.add_radio(1, {20, 0}, deaf_config(), Cca::kUnwatched);
    Radio& a = w.add_radio(2, {-50, 0}, deaf_config(), Cca::kUnwatched);
    RadioConfig cfg = cover_config();
    cfg.sensitivity_dbm = c.sensitivity_dbm;
    Radio& b = w.add_radio(3, {0, 0}, cfg, Cca::kWatched);
    CcaClock clock(w.simulator());
    b.set_listener(&clock);
    std::size_t scheduled = 0, tracked_before = 0, tracked_after = 0;
    w.simulator().at(0, [&] {
      (c.own_tx ? b : s).transmit(World::whole_frame(1400));
    });
    w.simulator().at(sent, [&] {
      tracked_before = b.interference().signals().size();
      scheduled = events_scheduled_by(
          w, [&] { a.transmit(World::whole_frame(1400)); });
      tracked_after = b.interference().signals().size();
    });
    w.simulator().run();
    // a's tx end only.
    EXPECT_EQ(scheduled, 1u) << c.label;
    EXPECT_EQ(tracked_after, tracked_before + 1) << c.label;
    EXPECT_EQ(b.counters().locks, 0u) << c.label;
    // a's energy holds the carrier from the end of the cover to its own
    // end: no idle edge in between.
    const sim::Time busy_at = c.own_tx ? 0 : propagation_delay_ns(20.0);
    const std::vector<std::pair<sim::Time, bool>> expected = {
        {busy_at, true}, {a_end, false}};
    EXPECT_EQ(clock.edges, expected) << c.label;
  }
}

TEST(Radio, ArrivalAbovePreambleCsTakesItsEventAtAWatchedRadio) {
  // Preamble CS below sensitivity: a's frame is too weak for b to lock,
  // but strong enough to hold b's carrier beyond s's cover by itself. A
  // watching b takes its arrival event, which extends strong_until_; an
  // unwatched b has no carrier to move and takes none.
  for (const Cca cca : {Cca::kWatched, Cca::kUnwatched}) {
    World w(nist());
    Radio& s = w.add_radio(1, {20, 0}, deaf_config(), Cca::kUnwatched);
    Radio& a = w.add_radio(2, {-50, 0}, deaf_config(), Cca::kUnwatched);
    RadioConfig cfg = deaf_config();
    cfg.cs_signal_dbm = -75.0;
    cfg.energy_detect_dbm = -50.0;  // preamble CS alone decides
    Radio& b = w.add_radio(3, {0, 0}, cfg, cca);
    ASSERT_LT(cfg.cs_signal_dbm, cfg.sensitivity_dbm);
    CcaClock clock(w.simulator());
    b.set_listener(&clock);
    const sim::Time sent = sim::microseconds(500);
    std::size_t scheduled = 0;
    w.simulator().at(0, [&] { s.transmit(World::whole_frame(1400)); });
    w.simulator().at(sent, [&] {
      scheduled = events_scheduled_by(
          w, [&] { a.transmit(World::whole_frame(1400)); });
    });
    w.simulator().run();
    const bool watched = cca == Cca::kWatched;
    EXPECT_EQ(scheduled, watched ? 2u : 1u) << "watched " << watched;
    EXPECT_EQ(b.counters().locks, 0u);
    std::vector<std::pair<sim::Time, bool>> expected;
    if (watched) {
      expected = {{propagation_delay_ns(20.0), true},
                  {sent + propagation_delay_ns(50.0) +
                       frame_airtime(WifiRate::k6Mbps, 1400),
                   false}};
    }
    EXPECT_EQ(clock.edges, expected) << "watched " << watched;
  }
}

TEST(Radio, ArrivalStartingAsItsCoverEndsTakesItsEvent) {
  // The cover (s's strong frame at b, or b's own transmission) ends at T.
  // An arrival of a's starting 1 ns before T is covered and takes no
  // event. One starting at T is not: the CCA wake at strong_until_, or
  // finish_tx at tx_end_, runs first in that instant and reports the idle
  // edge, and the arrival's own event then reports a's energy as busy.
  const sim::Time airtime = frame_airtime(WifiRate::k6Mbps, 1400);
  const sim::Time d_a = propagation_delay_ns(50.0);
  for (const bool own_tx : {false, true}) {
    const sim::Time busy_at = own_tx ? 0 : propagation_delay_ns(20.0);
    const sim::Time cover_end = busy_at + airtime;
    for (const sim::Time early : {sim::Time{1}, sim::Time{0}}) {
      World w(nist());
      Radio& s = w.add_radio(1, {20, 0}, deaf_config(), Cca::kUnwatched);
      Radio& a = w.add_radio(2, {-50, 0}, deaf_config(), Cca::kUnwatched);
      Radio& b = w.add_radio(3, {0, 0}, cover_config(), Cca::kWatched);
      CcaClock clock(w.simulator());
      b.set_listener(&clock);
      const sim::Time start = cover_end - early;  // of a's signal at b
      std::size_t scheduled = 0;
      w.simulator().at(0, [&] {
        (own_tx ? b : s).transmit(World::whole_frame(1400));
      });
      w.simulator().at(start - d_a, [&] {
        scheduled = events_scheduled_by(
            w, [&] { a.transmit(World::whole_frame(1400)); });
      });
      w.simulator().run();
      const bool covered = early > 0;
      // a's tx end, plus the arrival event at b when it is not covered.
      EXPECT_EQ(scheduled, covered ? 1u : 2u)
          << "own tx " << own_tx << " early " << early;
      std::vector<std::pair<sim::Time, bool>> expected = {{busy_at, true}};
      if (!covered) {
        expected.emplace_back(cover_end, false);
        expected.emplace_back(cover_end, true);
      }
      expected.emplace_back(start + airtime, false);
      EXPECT_EQ(clock.edges, expected)
          << "own tx " << own_tx << " early " << early;
    }
  }
}

TEST(Radio, WatchedRadioReportsSubSensitivityEnergyAtTheArrivalInstant) {
  // Two frames, each below b's sensitivity and energy-detect levels, are
  // together above energy detect: b turns busy when the second arrives.
  World w(nist());
  Radio& a1 = w.add_radio(1, {-50, 0}, {}, Cca::kUnwatched);
  Radio& a2 = w.add_radio(2, {50, 0}, {}, Cca::kUnwatched);
  RadioConfig cfg = deaf_config();
  cfg.cs_signal_dbm = -60.0;
  cfg.energy_detect_dbm = -69.0;
  Radio& b = w.add_radio(3, {0, 0}, cfg, Cca::kWatched);
  const double one = w.medium().mean_rx_power_dbm(1, 3);
  ASSERT_NEAR(one, w.medium().mean_rx_power_dbm(2, 3), 1e-9);
  ASSERT_LT(one, cfg.energy_detect_dbm);
  ASSERT_GT(mw_to_dbm(2.0 * dbm_to_mw(one)), cfg.energy_detect_dbm);
  CcaClock clock(w.simulator());
  b.set_listener(&clock);

  const sim::Time second = sim::microseconds(200);
  w.simulator().at(0, [&] { a1.transmit(World::whole_frame(1400)); });
  w.simulator().at(second, [&] { a2.transmit(World::whole_frame(1400)); });
  w.simulator().run();

  const sim::Time delay = propagation_delay_ns(50.0);
  const sim::Time airtime = frame_airtime(WifiRate::k6Mbps, 1400);
  const std::vector<std::pair<sim::Time, bool>> expected = {
      {second + delay, true}, {delay + airtime, false}};
  EXPECT_EQ(clock.edges, expected);
  EXPECT_EQ(b.counters().locks, 0u);
}

TEST(Radio, ArrivalAtATransmittingRadioIsEventlessOnlyIfItStartsBeforeTxEnd) {
  // b transmits 0 .. airtime; a's frame reaches b `delay` after a sends.
  const sim::Time delay = propagation_delay_ns(50.0);
  const sim::Time airtime = frame_airtime(WifiRate::k6Mbps, 1400);
  struct Case {
    sim::Time start;  // of a's signal at b
    bool salvage;
    std::size_t arrival_events;
  };
  // Salvage changes nothing: it would hear nothing of a frame b talks over.
  for (const Case c : {Case{airtime - sim::microseconds(1), false, 0},
                       Case{airtime, false, 1},
                       Case{airtime - sim::microseconds(1), true, 0},
                       Case{airtime, true, 1}}) {
    World w(nist());
    RadioConfig cfg;
    cfg.salvage_enabled = c.salvage;
    // Deaf, so b's frame does not lock a: a schedules only its own events.
    Radio& a = w.add_radio(1, {0, 0}, deaf_config(), Cca::kUnwatched);
    Radio& b = w.add_radio(2, {50, 0}, cfg, Cca::kUnwatched);
    std::size_t scheduled = 0;
    w.simulator().at(0, [&] { b.transmit(World::whole_frame(1400)); });
    w.simulator().at(c.start - delay, [&] {
      ASSERT_TRUE(b.transmitting());
      scheduled = events_scheduled_by(
          w, [&] { a.transmit(World::whole_frame(1400)); });
    });
    w.simulator().run();
    // a's tx end, plus the arrival event at b when it is not inert.
    EXPECT_EQ(scheduled, 1u + c.arrival_events)
        << "start " << c.start << " salvage " << c.salvage;
    EXPECT_EQ(b.counters().frames_sent, 1u);
  }
}

TEST(Radio, SalvagingTransmitterSalvagesNothingOfAFrameItTalksOver) {
  // a's frame reaches b while b is still transmitting, and b starts its
  // next frame at exactly the instant a's frame ends. Unwatched, b takes
  // the frame as an inert arrival: no event at its end. Watched, b keeps
  // the frame's end event (a salvaging radio schedules one per delivery),
  // where maybe_salvage finds that b's earlier transmission talked over
  // the frame's start. Neither run salvages anything.
  for (const Cca cca : {Cca::kWatched, Cca::kUnwatched}) {
    World w(nist());
    RadioConfig cfg;
    cfg.salvage_enabled = true;
    Radio& a = w.add_radio(1, {0, 0}, {}, Cca::kUnwatched);
    Radio& b = w.add_radio(2, {50, 0}, cfg, cca);
    const sim::Time sent = sim::microseconds(1800);  // b airs 0 .. 1892 us
    const Frame frame = World::hbt_frame(24, 1400, 24);
    const sim::Time end = sent + propagation_delay_ns(50.0) +
                          frame_airtime(frame.rate, frame.size_bytes());
    // Scheduled first, so b's second transmit runs before the signal end
    // that a's arrival schedules for the same instant.
    w.simulator().at(end, [&] { b.transmit(World::whole_frame(100)); });
    w.simulator().at(0, [&] { b.transmit(World::whole_frame(1400)); });
    w.simulator().at(sent, [&] { a.transmit(frame); });
    w.simulator().run_until(end - 1);
    const std::uint64_t before = w.simulator().events_executed();
    w.simulator().run_until(end);
    // b's second transmit; watched, also the end of a's frame at b and the
    // CCA wake that b's first tx end armed (a's frame held the carrier).
    const bool watched = cca == Cca::kWatched;
    EXPECT_EQ(w.simulator().events_executed() - before, watched ? 3u : 1u)
        << "watched " << watched;
    EXPECT_EQ(b.counters().cca_wakes, watched ? 1u : 0u);
    w.simulator().run();
    EXPECT_EQ(b.counters().frames_sent, 2u);
    EXPECT_EQ(b.counters().salvages, 0u);
    EXPECT_TRUE(w.listener(1).salvages.empty());
  }
}

TEST(Radio, SalvageSkipsAFrameAnEarlierTransmissionTalkedOver) {
  // b starts a transmission at exactly the instant a's frame ends, so only
  // b's transmission before that one can have talked over the frame: when
  // it ran past the frame's start, b heard nothing to salvage.
  for (const bool talked_over : {true, false}) {
    World w(nist());
    RadioConfig cfg;
    cfg.salvage_enabled = true;
    Radio& a = w.add_radio(1, {0, 0}, {}, Cca::kUnwatched);
    Radio& b = w.add_radio(2, {50, 0}, cfg, Cca::kUnwatched);
    // b airs 0 .. 1892 us.
    const sim::Time sent = sim::microseconds(talked_over ? 1800 : 2000);
    const Frame frame = World::hbt_frame(24, 1400, 24);
    const sim::Time end = sent + propagation_delay_ns(50.0) +
                          frame_airtime(frame.rate, frame.size_bytes());
    w.simulator().at(end, [&] { b.transmit(World::whole_frame(100)); });
    w.simulator().at(0, [&] { b.transmit(World::whole_frame(1400)); });
    w.simulator().at(sent, [&] { a.transmit(frame); });
    w.simulator().run();
    EXPECT_EQ(b.counters().frames_sent, 2u);
    EXPECT_EQ(b.counters().salvages, talked_over ? 0u : 1u)
        << "talked over " << talked_over;
  }
}

TEST(Radio, OptInBeforeAnInertArrivalReplaysItsArrivalEdge) {
  // b opts in while a's frame is in flight to it, after the frame went
  // into b's tracker as an inert arrival: b still reports the busy edge
  // at the arrival instant, exactly as a radio watching all along does.
  std::vector<std::pair<sim::Time, bool>> edges[2];
  for (const bool late : {false, true}) {
    World w(nist());
    Radio& a = w.add_radio(1, {0, 0}, {}, Cca::kUnwatched);
    Radio& b = w.add_radio(2, {50, 0}, deaf_config(),
                           late ? Cca::kUnwatched : Cca::kWatched);
    CcaClock clock(w.simulator());
    b.set_listener(&clock);
    w.simulator().at(0, [&] {
      a.transmit(World::whole_frame(1400));
      EXPECT_EQ(b.interference().signals().size(), late ? 1u : 0u);
      b.request_cca_notifications();
    });
    w.simulator().run();
    edges[late] = clock.edges;
  }
  const sim::Time delay = propagation_delay_ns(50.0);
  const std::vector<std::pair<sim::Time, bool>> expected = {
      {delay, true}, {delay + frame_airtime(WifiRate::k6Mbps, 1400), false}};
  EXPECT_EQ(edges[0], expected);
  EXPECT_EQ(edges[1], expected);
}

// ---- CCA wakes: every edge at its instant, without per-signal events ----

// Records CCA edges and lock starts with their instants, and for each edge
// the simulator's executed-event count, which names the event reporting it.
class CarrierLog : public RadioListener {
 public:
  explicit CarrierLog(const sim::Simulator& sim) : sim_(sim) {}
  void on_cca(bool busy) override {
    edges.emplace_back(sim_.now(), busy);
    edge_events.push_back(sim_.events_executed());
  }
  void on_rx_start(const Frame& frame, sim::Time end) override {
    (void)frame;
    locks.emplace_back(sim_.now(), end);
  }
  std::vector<std::pair<sim::Time, bool>> edges;
  std::vector<std::uint64_t> edge_events;  // one per edge
  std::vector<std::pair<sim::Time, sim::Time>> locks;  // (start, frame end)

 private:
  const sim::Simulator& sim_;
};

struct Arrival {
  sim::Time start;
  sim::Time end;
  double power_dbm;
  sim::Time lead;  // routed this long before it starts, as at a transmit
};

// A seeded schedule of arrivals at one radio: powers below sensitivity
// (two of which together can cross energy detect), around the energy
// detect levels below sensitivity, between sensitivity and preamble CS,
// above preamble CS, and strong enough to capture a lock. Some end exactly
// when an earlier one does, and some start exactly when an earlier one or
// one of `tx_ends` ends.
std::vector<Arrival> random_arrivals(std::uint64_t seed, sim::Time span,
                                     int count,
                                     const std::vector<sim::Time>& tx_ends) {
  sim::Rng rng(seed);
  std::vector<Arrival> out;
  for (int i = 0; i < count; ++i) {
    Arrival a;
    a.start = rng.uniform_int(0, span);
    if (rng.bernoulli(0.25)) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(out.size() + tx_ends.size()) - 1));
      a.start = pick < out.size() ? out[pick].end
                                  : tx_ends[pick - out.size()];
    }
    a.end = a.start + rng.uniform_int(sim::microseconds(100),
                                      sim::milliseconds(2));
    for (const Arrival& b : out) {
      if (b.end > a.start + sim::microseconds(50) && rng.bernoulli(0.2)) {
        a.end = b.end;
        break;
      }
    }
    const double band = rng.uniform();
    a.power_dbm = band < 0.3    ? rng.uniform(-92.0, -85.5)
                  : band < 0.45 ? rng.uniform(-86.0, -82.0)
                  : band < 0.6  ? rng.uniform(-84.0, -76.0)
                  : band < 0.85 ? rng.uniform(-74.0, -60.0)
                                : rng.uniform(-55.0, -45.0);
    a.lead = std::min(a.start, rng.uniform_int(1, sim::microseconds(50)));
    out.push_back(a);
  }
  return out;
}

// What one radio reported over one schedule.
struct CarrierRun {
  std::vector<std::pair<sim::Time, bool>> edges;
  std::vector<std::uint64_t> edge_events;
  std::vector<std::pair<sim::Time, sim::Time>> locks;
  Radio::Counters counters;
  std::uint64_t events = 0;
  std::uint64_t inert = 0;  // arrivals that went straight into the tracker
  std::uint64_t inert_lockable = 0;  // of those, at or above sensitivity
};

// Routes one delivery the way Medium::transmit does: an inert arrival
// (when `use_inert`) is tracked at once, any other gets its arrival event.
struct Router {
  sim::Simulator* sim;
  Radio* radio;
  bool use_inert;
  std::uint64_t inert = 0;
  std::uint64_t inert_lockable = 0;

  void route(std::shared_ptr<const Frame> frame, double power_mw,
             sim::Time start) {
    if (use_inert && radio->inert_arrival(power_mw, start)) {
      ++inert;
      inert_lockable += power_mw >= dbm_to_mw(radio->config().sensitivity_dbm);
      radio->add_interference(
          Signal{frame->id, power_mw, start, start + frame->duration});
      return;
    }
    const sim::EventRank rank = sim::delivery_rank(frame->id, radio->id());
    sim->at_ranked(start, rank,
                   [r = radio, frame = std::move(frame), power_mw, start] {
                     r->deliver(frame, power_mw, start);
                   });
  }
};

// Runs `arrivals` and three transmissions of its own (at `txs`) at one
// watched radio. Every arrival is routed `lead` before it starts.
CarrierRun run_carrier(const RadioConfig& cfg,
                       const std::vector<Arrival>& arrivals,
                       const std::vector<sim::Time>& txs, const Frame& own,
                       bool use_inert) {
  World w(nist());
  Radio& r = w.add_radio(1, {0, 0}, cfg, Cca::kWatched);
  CarrierLog log(w.simulator());
  r.set_listener(&log);
  Router router{&w.simulator(), &r, use_inert};
  std::uint64_t seq = 0;
  for (const Arrival& a : arrivals) {
    Frame f = World::whole_frame(500);
    f.tx_node = 100;  // a foreign sender, never attached
    f.id = make_frame_id(f.tx_node, ++seq);
    f.duration = a.end - a.start;
    w.simulator().at(a.start - a.lead,
                     [rt = &router, frame = std::make_shared<const Frame>(f),
                      power_mw = dbm_to_mw(a.power_dbm), start = a.start] {
                       rt->route(frame, power_mw, start);
                     });
  }
  for (const sim::Time t : txs) {
    w.simulator().at(t, [&r, &own] { r.transmit(own); });
  }
  w.simulator().run();
  CarrierRun out;
  out.edges = log.edges;
  out.edge_events = log.edge_events;
  out.locks = log.locks;
  out.counters = r.counters();
  out.events = w.simulator().events_executed();
  out.inert = router.inert;
  out.inert_lockable = router.inert_lockable;
  return out;
}

TEST(Radio, CcaEdgesMatchABruteForceCarrierTimeline) {
  // Preamble CS above sensitivity, so a lock can hold the carrier alone.
  RadioConfig base;
  base.cs_signal_dbm = -75.0;
  // Energy detect crossed by two arrivals of -86 dBm, below sensitivity.
  RadioConfig low_ed = base;
  low_ed.sensitivity_dbm = -85.0;
  low_ed.energy_detect_dbm = -83.0;
  // Energy detect above every lockable frame below CS, so such a lock can
  // be all that holds the carrier. When a capture or an own transmission
  // aborts it, the next state holds the carrier on: the event must report
  // no edge, not an idle edge and a busy one.
  RadioConfig high_ed = base;
  high_ed.energy_detect_dbm = -72.0;
  // Preamble CS at sensitivity, and energy detect below both: one arrival
  // too weak to lock or to hold the carrier by preamble can busy it alone.
  RadioConfig cs_at_sensitivity;
  cs_at_sensitivity.sensitivity_dbm = -82.0;
  cs_at_sensitivity.cs_signal_dbm = -82.0;
  cs_at_sensitivity.energy_detect_dbm = -86.0;
  // Preamble CS below sensitivity: an arrival between the two levels holds
  // the carrier without a lock, and must raise strong_until_ even when the
  // carrier is already busy.
  RadioConfig cs_below = cs_at_sensitivity;
  cs_below.sensitivity_dbm = -76.0;
  const RadioConfig* configs[] = {&low_ed, &high_ed, &cs_at_sensitivity,
                                  &cs_below};
  const sim::Time span = sim::milliseconds(20);
  const Frame own = World::whole_frame(200);
  const sim::Time own_airtime = frame_airtime(own.rate, own.size_bytes());
  std::uint64_t deliveries = 0, events = 0, wakes = 0;
  // Coverage: the schedules must reach every corner of the carrier.
  std::uint64_t locks = 0, captures = 0, energy_only_busy = 0,
                shared_ends = 0, talked_over = 0, double_edges = 0;
  // ... and of the inert rule: covered arrivals per config, lockable ones
  // talked over, and arrivals that start exactly as a strong signal or an
  // own transmission ends, turning the carrier straight back to busy.
  std::uint64_t covered[4] = {}, covered_lockable = 0,
                tip_at_strong_end = 0, tip_at_tx_end = 0;
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    const RadioConfig& cfg = *configs[seed % 4];
    // Three transmissions of its own, over whatever is on the air.
    std::vector<sim::Time> txs, tx_ends;
    sim::Rng tx_rng(seed + 1000);
    for (int i = 0; i < 3; ++i) {
      txs.push_back(i * span / 3 + tx_rng.uniform_int(0, span / 6));
      tx_ends.push_back(txs.back() + own_airtime);
    }
    const std::vector<Arrival> arrivals =
        random_arrivals(seed, span, 40, tx_ends);
    // Every arrival with its event, and routed as the medium does: the
    // inert ones must change nothing the radio reports, not even the
    // order of two edges within one instant, nor its CCA wakes.
    const CarrierRun all = run_carrier(cfg, arrivals, txs, own, false);
    const CarrierRun run = run_carrier(cfg, arrivals, txs, own, true);
    EXPECT_EQ(run.edges, all.edges) << "seed " << seed;
    EXPECT_EQ(run.locks, all.locks) << "seed " << seed;
    EXPECT_EQ(run.counters.cca_wakes, all.counters.cca_wakes)
        << "seed " << seed;
    EXPECT_EQ(run.counters.aborted_by_capture,
              all.counters.aborted_by_capture)
        << "seed " << seed;
    EXPECT_EQ(all.events - run.events, run.inert) << "seed " << seed;

    // Brute force: the carrier after every event of an instant, from the
    // arrival list, the radio's own transmissions and its locks. A lock
    // ends at its frame's end, at a capture (the next lock) or at a
    // transmission of its own.
    std::vector<std::pair<sim::Time, sim::Time>> rx;
    for (std::size_t i = 0; i < all.locks.size(); ++i) {
      sim::Time until = all.locks[i].second;
      if (i + 1 < all.locks.size()) {
        until = std::min(until, all.locks[i + 1].first);
      }
      for (const sim::Time t : txs) {
        if (t >= all.locks[i].first) until = std::min(until, t);
      }
      rx.emplace_back(all.locks[i].first, until);
    }
    std::vector<sim::Time> instants;
    for (const Arrival& a : arrivals) {
      instants.push_back(a.start);
      instants.push_back(a.end);
    }
    for (const sim::Time t : txs) {
      instants.push_back(t);
      instants.push_back(t + own_airtime);
    }
    for (const auto& [begin, end] : rx) {
      instants.push_back(begin);
      instants.push_back(end);
    }
    std::sort(instants.begin(), instants.end());
    instants.erase(std::unique(instants.begin(), instants.end()),
                   instants.end());
    const auto within = [](sim::Time t, sim::Time begin, sim::Time end) {
      return begin <= t && t < end;
    };
    std::vector<std::pair<sim::Time, bool>> expected;
    bool busy = false;
    for (const sim::Time t : instants) {
      bool state = false;
      for (const sim::Time tx : txs) {
        state = state || within(t, tx, tx + own_airtime);
      }
      for (const auto& [begin, end] : rx) {
        state = state || within(t, begin, end);
      }
      double total_mw = 0.0, max_mw = 0.0;
      for (const Arrival& a : arrivals) {
        if (!within(t, a.start, a.end)) continue;
        total_mw += dbm_to_mw(a.power_dbm);
        max_mw = std::max(max_mw, dbm_to_mw(a.power_dbm));
      }
      const bool strong = max_mw >= dbm_to_mw(cfg.cs_signal_dbm);
      const bool energy = total_mw >= dbm_to_mw(cfg.energy_detect_dbm);
      if (!state && !strong && energy) ++energy_only_busy;
      const bool now_busy = state || strong || energy;
      if (now_busy != busy) expected.emplace_back(t, now_busy);
      busy = now_busy;
    }
    EXPECT_FALSE(busy) << "seed " << seed;

    // The edges as the radio reported them, keeping the last state of
    // each instant: an edge may come after other events of its instant.
    std::vector<std::pair<sim::Time, bool>> settled;
    for (const auto& edge : all.edges) {
      if (!settled.empty() && settled.back().first == edge.first) {
        settled.back().second = edge.second;
      } else {
        settled.push_back(edge);
      }
    }
    // Each event reports at most one edge.
    for (std::size_t i = 1; i < all.edge_events.size(); ++i) {
      double_edges += all.edge_events[i] == all.edge_events[i - 1];
    }
    std::vector<std::pair<sim::Time, bool>> reported;
    for (const auto& edge : settled) {
      const bool before = !reported.empty() && reported.back().second;
      if (edge.second != before) reported.push_back(edge);
    }
    EXPECT_EQ(reported, expected) << "seed " << seed;

    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        shared_ends += arrivals[j].end == arrivals[i].end;
      }
      for (const sim::Time t : txs) {
        talked_over += within(arrivals[i].start, t, t + own_airtime);
      }
    }
    // An idle edge and a busy one at the same instant: the carrier turned
    // idle as a cover ended, then an arrival starting there busied it.
    for (std::size_t i = 1; i < all.edges.size(); ++i) {
      const auto& [t, now_busy] = all.edges[i];
      if (!now_busy || all.edges[i - 1] != std::pair{t, false}) continue;
      const bool strong_end = std::any_of(
          arrivals.begin(), arrivals.end(), [&](const Arrival& a) {
            return a.end == t && a.power_dbm >= cfg.cs_signal_dbm;
          });
      tip_at_strong_end += strong_end;
      tip_at_tx_end += std::count(tx_ends.begin(), tx_ends.end(), t);
    }
    covered[seed % 4] += run.inert;
    covered_lockable += run.inert_lockable;
    deliveries += arrivals.size();
    // The routing events are the medium's, not the radio's.
    events += all.events - arrivals.size();
    locks += all.counters.locks;
    captures += all.counters.aborted_by_capture;
    wakes += all.counters.cca_wakes;
  }
  EXPECT_GT(locks, 0u);
  EXPECT_GT(captures, 0u);
  EXPECT_GT(energy_only_busy, 0u);
  EXPECT_GT(shared_ends, 0u);
  EXPECT_GT(talked_over, 0u);
  EXPECT_EQ(double_edges, 0u);
  for (const std::uint64_t n : covered) EXPECT_GT(n, 0u);
  EXPECT_GT(covered_lockable, 0u);
  EXPECT_GT(tip_at_strong_end, 0u);
  EXPECT_GT(tip_at_tx_end, 0u);
  // A wake comes per busy stretch of the idle radio (and per extension
  // of one), not per signal: the radio runs fewer events than its
  // arrivals plus one end event per arrival would have made.
  EXPECT_LT(4 * wakes, deliveries);
  EXPECT_LT(events, 2 * deliveries);
}

TEST(Radio, BelowDeliveryFloorNothingArrives) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {5000, 0});  // ~ -121 dBm, below the -104 dBm floor
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().run();
  EXPECT_TRUE(w.listener(1).rx_ends.empty());
  EXPECT_TRUE(w.radio(1).interference().signals().empty());
}

TEST(Radio, BelowSensitivityIsEnergyNotFrame) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {700, 0});  // ~ -93.6 dBm: above floor, below sensitivity
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().run();
  EXPECT_EQ(w.radio(1).counters().locks, 0u);
  EXPECT_FALSE(w.listener(1).rx_ends.size());
  EXPECT_EQ(w.radio(1).interference().signals().size(), 1u);
}

TEST(Radio, IntegratedHeaderStreamsBeforeFrameEnd) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  sim::Time header_at = -1, end_at = -1;

  class TimedListener : public RecordingListener {
   public:
    TimedListener(sim::Simulator& s, sim::Time* h, sim::Time* e)
        : sim_(s), h_(h), e_(e) {}
    void on_header_decoded(const Frame& f, bool ok) override {
      RecordingListener::on_header_decoded(f, ok);
      *h_ = sim_.now();
    }
    void on_rx_end(const Frame& f, const RxResult& r) override {
      RecordingListener::on_rx_end(f, r);
      *e_ = sim_.now();
    }
    sim::Simulator& sim_;
    sim::Time* h_;
    sim::Time* e_;
  } timed(w.simulator(), &header_at, &end_at);

  w.radio(1).set_listener(&timed);
  w.simulator().at(0, [&] { a.transmit(World::hbt_frame(24, 1400, 24)); });
  w.simulator().run();
  ASSERT_EQ(timed.header_ok.size(), 1u);
  EXPECT_TRUE(timed.header_ok[0]);
  ASSERT_EQ(timed.rx_ends.size(), 1u);
  EXPECT_TRUE(timed.rx_ends[0].result.all_ok());
  EXPECT_LT(header_at, end_at);
  // Header (24 of 1448 bytes) decodes within the first ~5% of the payload.
  EXPECT_LT(header_at, end_at / 10);
}

TEST(Radio, SalvageRecoversTrailerOfUnlockedFrame) {
  // Salvage needs no CCA watcher: an integrated-mode radio keeps its
  // signal-end events either way.
  for (const Cca cca : {Cca::kWatched, Cca::kUnwatched}) {
    World w(nist());
    RadioConfig cfg;
    cfg.salvage_enabled = true;
    Radio& a = w.add_radio(1, {50, 0}, {}, cca);
    Radio& x = w.add_radio(2, {60, 0}, {}, cca);
    w.add_radio(3, {0, 0}, cfg, cca);
    // a's frame: 0 .. 1892 us. x's frame starts at 500 us, ends ~2456 us;
    // its trailer airs after a finishes, in the clear.
    w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
    w.simulator().at(sim::microseconds(500),
                     [&] { x.transmit(World::hbt_frame(24, 1400, 24)); });
    w.simulator().run();

    auto& rx = w.listener(2);
    ASSERT_EQ(rx.rx_ends.size(), 1u);        // locked frame from a
    EXPECT_FALSE(rx.rx_ends[0].result.all_ok());  // x collided with it
    ASSERT_EQ(rx.salvages.size(), 1u);
    EXPECT_EQ(rx.salvages[0].frame.tx_node, 2u);
    EXPECT_FALSE(rx.salvages[0].result.segment_ok[0]);  // header collided
    EXPECT_TRUE(rx.salvages[0].result.segment_ok[2]);   // trailer clean
    EXPECT_EQ(w.radio(2).counters().salvages, 1u);
    EXPECT_EQ(rx.cca_changes.empty(), cca == Cca::kUnwatched);
  }
}

TEST(Radio, NoSalvageWhenDisabled) {
  World w(nist());
  Radio& a = w.add_radio(1, {50, 0});
  Radio& x = w.add_radio(2, {60, 0});
  w.add_radio(3, {0, 0});  // default config: salvage off (shim mode)
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::microseconds(500),
                   [&] { x.transmit(World::hbt_frame(24, 1400, 24)); });
  w.simulator().run();
  EXPECT_TRUE(w.listener(2).salvages.empty());
}

TEST(Radio, NoSalvageOfFramesTalkedOver) {
  World w(nist());
  RadioConfig cfg;
  cfg.salvage_enabled = true;
  Radio& a = w.add_radio(1, {50, 0});
  Radio& b = w.add_radio(2, {0, 0}, cfg);
  // b transmits while a's integrated frame is in the air: half-duplex, no
  // salvage even though the trailer would have been clean.
  w.simulator().at(0, [&] { a.transmit(World::hbt_frame(24, 1400, 24)); });
  w.simulator().at(sim::microseconds(100),
                   [&] { b.transmit(World::whole_frame(60)); });
  w.simulator().run();
  EXPECT_TRUE(w.listener(1).salvages.empty());
}

TEST(Radio, BackToBackFramesAllReceived) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  // 1 us turnaround between frames (a real MAC chains on on_tx_end).
  const sim::Time d = frame_airtime(WifiRate::k6Mbps, 500) + sim::microseconds(1);
  for (int i = 0; i < 3; ++i) {
    w.simulator().at(i * d, [&] { a.transmit(World::whole_frame(500)); });
  }
  w.simulator().run();
  auto& rx = w.listener(1);
  ASSERT_EQ(rx.rx_ends.size(), 3u);
  for (const auto& e : rx.rx_ends) EXPECT_TRUE(e.result.all_ok());
}

TEST(Radio, TrackerHoldsOnlySignalsThatCanStillMatter) {
  // Exact retention: a long frame train leaves the receiver's tracker
  // bounded by the signals on the air, not by the train's length.
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  const sim::Time d =
      frame_airtime(WifiRate::k6Mbps, 100) + sim::microseconds(1);
  std::size_t max_held = 0, max_on_air = 0;
  for (int i = 0; i < 2000; ++i) {
    w.simulator().at(i * d, [&] { a.transmit(World::whole_frame(100)); });
    w.simulator().at(i * d + d / 2, [&] {
      const auto& signals = w.radio(1).interference().signals();
      const sim::Time now = w.simulator().now();
      const auto on_air = static_cast<std::size_t>(std::count_if(
          signals.begin(), signals.end(),
          [now](const Signal& s) { return s.start <= now && s.end > now; }));
      max_held = std::max(max_held, signals.size());
      max_on_air = std::max(max_on_air, on_air);
    });
  }
  w.simulator().run();
  EXPECT_EQ(w.radio(1).counters().rx_ok, 2000u);
  EXPECT_EQ(max_on_air, 1u);
  EXPECT_LE(max_held, std::max<std::size_t>(16, 2 * max_on_air));
}

TEST(Radio, MarginalLinkWithFadingMixesOutcomes) {
  MediumConfig mcfg;
  mcfg.fading_sigma_db = 6.0;
  World w(nist(), mcfg);
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {330, 0});  // ~ -87 dBm mean: SINR ~7 dB, eff ~2 — marginal
  const sim::Time d = frame_airtime(WifiRate::k6Mbps, 1400);
  for (int i = 0; i < 200; ++i) {
    w.simulator().at(i * (d + sim::microseconds(100)),
                     [&] { a.transmit(World::whole_frame(1400)); });
  }
  w.simulator().run();
  const auto& c = w.radio(1).counters();
  // With 6 dB fading both clean decodes and failures must occur.
  EXPECT_GT(c.rx_ok, 5u);
  EXPECT_GT(c.rx_corrupt + c.preamble_failures + (200 - c.locks), 5u);
}

TEST(Radio, MeanRxPowerMatchesPropagationModel) {
  World w(nist());
  w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  FriisPropagation friis;
  EXPECT_NEAR(w.medium().mean_rx_power_dbm(1, 2),
              friis.rx_power_dbm(10.0, 1, 2, {0, 0}, {50, 0}), 1e-9);
}

TEST(Radio, ThresholdModelMakesCollisionsDeterministic) {
  World w(threshold(3.0));
  Radio& a = w.add_radio(1, {0, 0});
  Radio& c = w.add_radio(3, {150, 0});
  w.add_radio(2, {30, 0});
  // SINR of a's frame (-66.2 dBm) over interferer c (-88.3 dBm) + noise is
  // ~22 dB; after the 5 dB implementation loss still above the 3 dB
  // threshold, so the frame decodes despite the overlap.
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(1400)); });
  w.simulator().at(sim::microseconds(400),
                   [&] { c.transmit(World::whole_frame(1400)); });
  w.simulator().run();
  auto& rx = w.listener(2);
  ASSERT_EQ(rx.rx_ends.size(), 1u);
  EXPECT_EQ(rx.rx_ends[0].frame.tx_node, 1u);
  EXPECT_TRUE(rx.rx_ends[0].result.all_ok());
}

TEST(RadioDeathTest, DoubleTransmitAsserts) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.simulator().at(0, [&] {
    a.transmit(World::whole_frame(100));
    EXPECT_DEATH(a.transmit(World::whole_frame(100)), "transmitting");
  });
  w.simulator().run();
}

TEST(RadioConfigDeathTest, NonFiniteLevelAbortsNamingTheField) {
  const std::pair<const char*, double RadioConfig::*> fields[] = {
      {"tx_power_dbm", &RadioConfig::tx_power_dbm},
      {"noise_floor_dbm", &RadioConfig::noise_floor_dbm},
      {"sensitivity_dbm", &RadioConfig::sensitivity_dbm},
      {"cs_signal_dbm", &RadioConfig::cs_signal_dbm},
      {"energy_detect_dbm", &RadioConfig::energy_detect_dbm},
      {"preamble_min_sinr_db", &RadioConfig::preamble_min_sinr_db},
      {"capture_margin_db", &RadioConfig::capture_margin_db},
      {"implementation_loss_db", &RadioConfig::implementation_loss_db},
  };
  for (const auto& [field, member] : fields) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      RadioConfig cfg;
      cfg.*member = bad;
      EXPECT_DEATH(World(nist()).add_radio(1, {0, 0}, cfg),
                   std::string("RadioConfig::") + field)
          << field << " = " << bad;
    }
  }
}

TEST(RadioConfigDeathTest, NegativeCaptureMarginAbortsNamingTheField) {
  RadioConfig cfg;
  cfg.capture_margin_db = -0.5;
  EXPECT_DEATH(World(nist()).add_radio(1, {0, 0}, cfg),
               "RadioConfig::capture_margin_db");
}

TEST(RadioConfigValidation, BoundaryValuesAndTestOverridesAreAccepted) {
  World w(nist());
  RadioConfig zero_margin;
  zero_margin.capture_margin_db = 0.0;
  EXPECT_EQ(w.add_radio(1, {0, 0}, zero_margin).config(), zero_margin);
  // The deafened hidden-terminal senders (mac/test_dcf) and the mute
  // receiver (core/test_cmap_mac).
  RadioConfig deaf;
  deaf.sensitivity_dbm = -80.0;
  deaf.cs_signal_dbm = -80.0;
  deaf.energy_detect_dbm = -70.0;
  EXPECT_EQ(w.add_radio(2, {10, 0}, deaf).config(), deaf);
  RadioConfig mute;
  mute.tx_power_dbm = -30.0;
  EXPECT_EQ(w.add_radio(3, {20, 0}, mute).config(), mute);
}

}  // namespace
}  // namespace cmap::phy

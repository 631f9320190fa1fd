// Harness for CMAP end-to-end tests: CmapMac nodes over a controlled
// Friis/no-fading medium with a threshold error model, so collisions and
// captures are deterministic.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/cmap_mac.h"
#include "phy/medium.h"
#include "phy/radio.h"

namespace cmap::core::testing {

class CmapWorld {
 public:
  explicit CmapWorld(double threshold_db = 3.0)
      : model_(std::make_shared<phy::ThresholdErrorModel>(threshold_db)),
        medium_(std::make_shared<phy::FriisPropagation>(), no_fading(),
                sim::Rng(11)) {}

  static phy::MediumConfig no_fading() {
    phy::MediumConfig m;
    m.fading_sigma_db = 0.0;
    return m;
  }

  CmapMac& add_node(phy::NodeId id, phy::Position pos, CmapConfig cfg = {},
                    phy::RadioConfig rcfg = {}) {
    if (cfg.mode == PhyMode::kIntegrated) rcfg.salvage_enabled = true;
    radios_.push_back(std::make_unique<phy::Radio>(
        sim_, medium_, id, pos, rcfg, model_, sim::Rng(300 + id)));
    macs_.push_back(std::make_unique<CmapMac>(sim_, *radios_.back(), cfg,
                                              sim::Rng(700 + id)));
    received_.emplace_back();
    auto& bucket = received_.back();
    macs_.back()->set_rx_handler(
        [&bucket](const mac::Packet& p, const mac::Mac::RxInfo& info) {
          if (!info.duplicate) bucket.push_back(p);
        });
    return *macs_.back();
  }

  void saturate(CmapMac& m, phy::NodeId src, phy::NodeId dst,
                std::size_t bytes = 1400) {
    auto fill = [this, &m, src, dst, bytes] {
      while (m.queue_depth() < 128) {
        mac::Packet p;
        p.src = src;
        p.dst = dst;
        p.id = ++next_packet_id_;
        p.bytes = bytes;
        if (!m.send(p)) break;
      }
    };
    m.set_drain_handler(fill);
    fill();
  }

  mac::Packet make_packet(phy::NodeId src, phy::NodeId dst,
                          std::size_t bytes = 1400) {
    mac::Packet p;
    p.src = src;
    p.dst = dst;
    p.id = ++next_packet_id_;
    p.bytes = bytes;
    return p;
  }

  sim::Simulator& simulator() { return sim_; }
  phy::Radio& radio(std::size_t i) { return *radios_[i]; }
  CmapMac& mac(std::size_t i) { return *macs_[i]; }
  const std::vector<mac::Packet>& received(std::size_t i) const {
    return received_[i];
  }
  double throughput_mbps(std::size_t i, sim::Time window) const {
    double bits = 0;
    for (const auto& p : received_[i]) bits += 8.0 * p.bytes;
    return bits / sim::to_seconds(window) / 1e6;
  }

 private:
  std::shared_ptr<const phy::ErrorModel> model_;
  sim::Simulator sim_;
  phy::Medium medium_;
  std::vector<std::unique_ptr<phy::Radio>> radios_;
  std::vector<std::unique_ptr<CmapMac>> macs_;
  std::deque<std::vector<mac::Packet>> received_;
  std::uint64_t next_packet_id_ = 0;
};

}  // namespace cmap::core::testing

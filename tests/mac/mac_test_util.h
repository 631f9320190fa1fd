// Harness for MAC-level tests: radios + MACs over a Friis medium with no
// fading, plus saturation helpers and delivery counting.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mac80211/dcf.h"
#include "phy/medium.h"
#include "phy/radio.h"

namespace cmap::mac80211::testing {

class MacWorld {
 public:
  explicit MacWorld(double error_threshold_db = 3.0)
      : model_(std::make_shared<phy::ThresholdErrorModel>(error_threshold_db)),
        medium_(sim_, std::make_shared<phy::FriisPropagation>(), no_fading(),
                sim::Rng(7)) {}

  static phy::MediumConfig no_fading() {
    phy::MediumConfig m;
    m.fading_sigma_db = 0.0;
    return m;
  }

  DcfMac& add_node(phy::NodeId id, phy::Position pos, DcfConfig cfg = {},
                   phy::RadioConfig rcfg = {}) {
    radios_.push_back(std::make_unique<phy::Radio>(
        sim_, medium_, id, pos, rcfg, model_, sim::Rng(500 + id)));
    macs_.push_back(
        std::make_unique<DcfMac>(sim_, *radios_.back(), cfg, dcf_rng(id)));
    received_.emplace_back();
    auto& bucket = received_.back();
    macs_.back()->set_rx_handler(
        [&bucket](const mac::Packet& p, const mac::Mac::RxInfo& info) {
          if (!info.duplicate) bucket.push_back(p);
        });
    return *macs_.back();
  }

  /// The generator node `id`'s DCF draws its backoffs from.
  static sim::Rng dcf_rng(phy::NodeId id) { return sim::Rng(900 + id); }

  /// Keep `m` backlogged with 1400-byte packets to `dst`.
  void saturate(DcfMac& m, phy::NodeId src, phy::NodeId dst,
                std::size_t bytes = 1400) {
    auto fill = [this, &m, src, dst, bytes] {
      while (m.queue_depth() < 8) {
        mac::Packet p;
        p.src = src;
        p.dst = dst;
        p.id = ++next_packet_id_;
        p.bytes = bytes;
        p.created_at = sim_.now();
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
    p.created_at = sim_.now();
    return p;
  }

  sim::Simulator& simulator() { return sim_; }
  phy::Radio& radio(std::size_t i) { return *radios_[i]; }
  DcfMac& mac(std::size_t i) { return *macs_[i]; }
  const std::vector<mac::Packet>& received(std::size_t i) const {
    return received_[i];
  }

  /// Goodput of unique packets delivered at node index `i` over `window`.
  double throughput_bps(std::size_t i, sim::Time window) const {
    double bits = 0;
    for (const auto& p : received_[i]) bits += 8.0 * p.bytes;
    return bits / sim::to_seconds(window);
  }

 private:
  std::shared_ptr<const phy::ErrorModel> model_;
  sim::Simulator sim_;
  phy::Medium medium_;
  std::vector<std::unique_ptr<phy::Radio>> radios_;
  std::vector<std::unique_ptr<DcfMac>> macs_;
  // deque: rx-handler lambdas hold references into elements; growth must
  // not invalidate them.
  std::deque<std::vector<mac::Packet>> received_;
  std::uint64_t next_packet_id_ = 0;
};

}  // namespace cmap::mac80211::testing

// Traffic generators and sinks. The paper's workloads are saturated
// unicast flows ("senders transmit 1400-byte packets as fast as they can",
// §5.1). The mesh dissemination experiment (§5.7) saturates its sources
// too: a broadcast phase from the mesh source, then unicast relays.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mac/mac.h"
#include "sim/simulator.h"
#include "stats/throughput.h"

namespace cmap::net {

/// Keeps a MAC's queue backlogged with fixed-size packets to one
/// destination for the lifetime of the run.
class SaturatedSource {
 public:
  SaturatedSource(mac::Mac& mac, phy::NodeId src, phy::NodeId dst,
                  std::size_t bytes = 1400, std::uint32_t flow = 0);

  std::uint64_t offered() const { return offered_; }

 private:
  void fill();

  mac::Mac& mac_;
  phy::NodeId src_;
  phy::NodeId dst_;
  std::size_t bytes_;
  std::uint32_t flow_;
  std::uint64_t offered_ = 0;
  std::uint64_t next_packet_id_;  // per-instance; see packet_id_base()
};

/// Counts unique delivered packets (duplicates are already flagged by the
/// MAC) into a windowed throughput meter, and optionally forwards them.
/// Keeps the same counts per source node (mac::Packet::src), so each of
/// several flows into one destination reads only its own goodput.
class PacketSink {
 public:
  using ForwardHandler = std::function<void(const mac::Packet&)>;

  /// What the sink counted from one source.
  struct Tally {
    stats::ThroughputMeter meter;
    std::uint64_t unique_packets = 0;
    std::uint64_t duplicate_packets = 0;
  };

  explicit PacketSink(mac::Mac& mac, sim::Simulator& simulator);

  void set_window(sim::Time begin, sim::Time end);
  void set_forward(ForwardHandler handler) { forward_ = handler; }

  /// Node totals, over every source.
  const stats::ThroughputMeter& meter() const { return total_.meter; }
  std::uint64_t unique_packets() const { return total_.unique_packets; }
  std::uint64_t duplicate_packets() const {
    return total_.duplicate_packets;
  }

  /// The counts from `src` alone; all zero (over this sink's window) for a
  /// source never heard.
  Tally from(phy::NodeId src) const;

 private:
  Tally& tally_for(phy::NodeId src);

  sim::Simulator& sim_;
  sim::Time begin_ = 0;
  sim::Time end_ = 0;
  Tally total_;
  // One entry per source heard, in first-heard order. A sink hears a
  // handful of sources, so a scan beats a map and allocates only when a
  // new source appears.
  std::vector<std::pair<phy::NodeId, Tally>> sources_;
  ForwardHandler forward_;
};

}  // namespace cmap::net

// Traffic generators and sinks. The paper's workloads are saturated
// unicast flows ("senders transmit 1400-byte packets as fast as they can",
// §5.1). The mesh dissemination experiment (§5.7) saturates its sources
// too: a broadcast phase from the mesh source, then unicast relays.
#pragma once

#include <cstdint>
#include <functional>

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
class PacketSink {
 public:
  using ForwardHandler = std::function<void(const mac::Packet&)>;

  explicit PacketSink(mac::Mac& mac, sim::Simulator& simulator);

  void set_window(sim::Time begin, sim::Time end) {
    meter_.set_window(begin, end);
  }
  void set_forward(ForwardHandler handler) { forward_ = handler; }

  const stats::ThroughputMeter& meter() const { return meter_; }
  std::uint64_t unique_packets() const { return unique_; }
  std::uint64_t duplicate_packets() const { return duplicates_; }

 private:
  sim::Simulator& sim_;
  stats::ThroughputMeter meter_;
  ForwardHandler forward_;
  std::uint64_t unique_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace cmap::net

#include "net/traffic.h"

#include "sim/assert.h"

namespace cmap::net {

namespace {
constexpr std::size_t kBacklogTarget = 64;  // packets kept queued

// Packet ids are unique per (source node, flow tag) within a simulation —
// the harness allows one source per node — and deterministic regardless of
// how many worlds ran before or on which thread. A process-global counter
// here would both race under the parallel sweep runner and make results
// depend on execution order.
std::uint64_t packet_id_base(phy::NodeId src, std::uint32_t flow) {
  // Non-overlapping fields: [62:52] flow | [51:32] src | [31:0] per-source
  // counter. The asserts keep the uniqueness guarantee honest instead of
  // silently bleeding fields together.
  CMAP_ASSERT(src < (1u << 20), "NodeId too large for packet-id packing");
  CMAP_ASSERT(flow < (1u << 11), "flow tag too large for packet-id packing");
  return (static_cast<std::uint64_t>(flow) << 52) |
         (static_cast<std::uint64_t>(src) << 32);
}

}  // namespace

SaturatedSource::SaturatedSource(mac::Mac& mac, phy::NodeId src,
                                 phy::NodeId dst, std::size_t bytes,
                                 std::uint32_t flow)
    : mac_(mac),
      src_(src),
      dst_(dst),
      bytes_(bytes),
      flow_(flow),
      next_packet_id_(packet_id_base(src, flow)) {
  mac_.set_drain_handler([this] { fill(); });
  fill();
}

void SaturatedSource::fill() {
  while (mac_.queue_depth() < kBacklogTarget) {
    mac::Packet p;
    p.src = src_;
    p.dst = dst_;
    p.id = ++next_packet_id_;
    p.flow = flow_;
    p.bytes = bytes_;
    if (!mac_.send(p)) break;
    ++offered_;
  }
}

PacketSink::PacketSink(mac::Mac& mac, sim::Simulator& simulator)
    : sim_(simulator) {
  mac.set_rx_handler([this](const mac::Packet& p,
                            const mac::Mac::RxInfo& info) {
    Tally& source = tally_for(p.src);
    if (info.duplicate) {
      ++total_.duplicate_packets;
      ++source.duplicate_packets;
      return;
    }
    ++total_.unique_packets;
    ++source.unique_packets;
    total_.meter.on_packet(p.bytes, sim_.now());
    source.meter.on_packet(p.bytes, sim_.now());
    if (forward_) forward_(p);
  });
}

void PacketSink::set_window(sim::Time begin, sim::Time end) {
  begin_ = begin;
  end_ = end;
  total_.meter.set_window(begin, end);
  for (auto& [src, tally] : sources_) tally.meter.set_window(begin, end);
}

PacketSink::Tally PacketSink::from(phy::NodeId src) const {
  for (const auto& [id, tally] : sources_) {
    if (id == src) return tally;
  }
  return Tally{stats::ThroughputMeter(begin_, end_)};
}

PacketSink::Tally& PacketSink::tally_for(phy::NodeId src) {
  for (auto& [id, tally] : sources_) {
    if (id == src) return tally;
  }
  return sources_.emplace_back(src, Tally{stats::ThroughputMeter(begin_, end_)})
      .second;
}

}  // namespace cmap::net

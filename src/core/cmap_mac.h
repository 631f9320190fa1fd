// The CMAP link layer (the paper's core contribution), tying together:
//   * the transmission decision process over the ongoing list and the
//     defer table (§3.2),
//   * the windowed ACK/retransmission protocol with cumulative bitmap ACKs
//     and the window-full timeout (§3.3),
//   * the loss-rate-driven backoff (§3.4),
//   * receiver-side conflict inference feeding periodically broadcast
//     interferer lists (§3.1),
// over either PHY realization of §2.1: the prototype's shim (separate
// header/trailer packets around a burst of Nvpkt data packets — a "virtual
// packet", §4.1) or the integrated/PPR mode (per-frame header/trailer
// segments, salvageable from collisions).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/defer_table.h"
#include "core/interferer_tracker.h"
#include "core/loss_backoff.h"
#include "core/ongoing_list.h"
#include "core/send_window.h"
#include "core/wire.h"
#include "mac/dup_filter.h"
#include "mac/mac.h"
#include "metrics/metrics.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace cmap::core {

/// Outcome of one "may I send to v at rate r now?" consultation (§3.2).
/// Every field but `defer` is valid only when defer, and zero otherwise.
struct DeferDecision {
  bool defer = false;
  /// Why: the first blocking ongoing transmission (in note order) and
  /// which rule it tripped.
  trace::DeferReason reason = trace::DeferReason::kNone;
  phy::NodeId blocker_src = 0;
  phy::NodeId blocker_dst = 0;
  /// Earliest end time among the transmissions that forced the deferral
  /// (the moment the decision is worth re-asking).
  sim::Time until = 0;
};

/// The CMAP send decision as one pass: for every live ongoing transmission
/// p -> q, defer if the destination is a party to it or if this node's
/// slice of the conflict map holds a matching defer pattern. The fast path
/// (decide) iterates the ongoing ring allocation-free and answers each
/// conflict-map question with two indexed bucket probes — O(active
/// conflicts) per transmit attempt. The test-only oracle in
/// tests/oracles/defer_oracle.h restates the same rules as a plain scan.
class DeferDecider {
 public:
  DeferDecider(const OngoingList& ongoing, const DeferTable& table,
               phy::NodeId self, bool annotate_rates)
      : ongoing_(ongoing),
        table_(table),
        self_(self),
        annotate_rates_(annotate_rates) {}

  DeferDecision decide(phy::NodeId dst, phy::WifiRate my_rate,
                       sim::Time now) const;

 private:
  const OngoingList& ongoing_;
  const DeferTable& table_;
  phy::NodeId self_;
  bool annotate_rates_;
};

class CmapMac final : public mac::Mac, public phy::RadioListener {
 public:
  CmapMac(sim::Simulator& simulator, phy::Radio& radio, CmapConfig config,
          sim::Rng rng);

  // --- mac::Mac ---
  bool send(mac::Packet packet) override;
  void set_rx_handler(RxHandler handler) override { rx_handler_ = handler; }
  void set_drain_handler(DrainHandler handler) override {
    drain_handler_ = handler;
  }
  std::size_t queue_depth() const override { return fresh_queue_.size(); }
  const mac::MacStats& stats() const override { return stats_; }

  /// CMAP-specific counters, for experiments and tests.
  struct Counters {
    std::uint64_t vps_sent = 0;
    std::uint64_t retx_timeouts = 0;
    std::uint64_t headers_heard = 0;    // any source
    std::uint64_t trailers_heard = 0;   // any source
    std::uint64_t vps_delim_received = 0;  // unique addressed VPs, any delim
    std::uint64_t vps_header_received = 0;  // unique addressed VPs, header ok
    std::uint64_t ilists_sent = 0;
    std::uint64_t ilists_received = 0;
    std::uint64_t defer_events = 0;
  };
  const Counters& counters() const { return counters_; }

  /// vps_delim_received and vps_header_received from one sender alone;
  /// summed over senders they give the node totals in counters().
  struct SenderRxCounts {
    std::uint64_t vps_delim_received = 0;
    std::uint64_t vps_header_received = 0;
  };
  SenderRxCounts rx_counts_from(phy::NodeId src) const;

  // Introspection (examples dump these as the conflict map converges).
  const DeferTable& defer_table() const { return defer_table_; }
  const OngoingList& ongoing_list() const { return ongoing_; }
  /// The decision engine over this MAC's live conflict-map state.
  DeferDecider decider() const {
    return DeferDecider(ongoing_, defer_table_, radio_.id(),
                        config_.annotate_rates);
  }
  const InterfererTracker& interferer_tracker() const { return tracker_; }
  const LossBackoff& loss_backoff() const { return backoff_; }
  const CmapConfig& config() const { return config_; }
  phy::NodeId id() const { return radio_.id(); }

  // --- phy::RadioListener ---
  void on_rx_end(const phy::Frame& frame, const phy::RxResult& result) override;
  void on_header_decoded(const phy::Frame& frame, bool ok) override;
  void on_salvage(const phy::Frame& frame, const phy::RxResult& result) override;
  void on_tx_end(const phy::Frame& frame) override;

 private:
  enum class State {
    kIdle,       // nothing in flight; try_send decides what's next
    kDeferWait,  // conflict map said defer; timer armed
    kSendingVp,  // header/data/trailer chain on the air
    kAckWait,    // trailer sent; waiting up to t_ackwait
    kBackoff,    // post-VP random wait in [0, CW]
    kRetxWait,   // window full; retransmission timeout armed
  };

  struct Outstanding {
    mac::Packet packet;
    int transmissions = 0;
  };

  /// Receiver-side reassembly of one incoming virtual packet.
  struct VpRxContext {
    phy::NodeId src = 0;
    std::uint32_t vp_seq = 0;
    std::uint16_t npackets = 0;
    sim::Time vp_start = 0;
    sim::Time vp_end = 0;
    phy::WifiRate data_rate = phy::WifiRate::k6Mbps;
    bool have_bounds = false;  // saw header or trailer (timing known)
    bool have_header = false;
    std::map<std::uint16_t, bool> received;  // index -> got it
    bool finalized = false;
    sim::EventId finalize_event;
  };

  /// A foreign transmission placed in time (for loss attribution, §3.1).
  struct ForeignTx {
    phy::NodeId src = 0;
    phy::NodeId dst = 0;
    sim::Time start = 0;
    sim::Time end = 0;
    phy::WifiRate rate = phy::WifiRate::k6Mbps;
  };

  struct PerSenderRx {
    std::deque<CmapAckFrame::VpAck> recent_vps;  // last nwindow_vps
    SenderRxCounts counts;
    double window_loss_rate() const;
  };

  // Sender path.
  void try_send();
  bool check_defer(phy::NodeId dst, sim::Time* recheck_at);
  void start_vp(phy::NodeId dst);
  void start_broadcast_vp();  // §3.6: unacknowledged, outside the window
  void transmit_next_vp_frame();
  void on_vp_fully_sent();
  void on_ack_wait_expired();
  void enter_backoff();
  void arm_retx_timer();
  void on_retx_timeout();
  void handle_ack(const CmapAckFrame& ack);
  phy::Frame build_delim_frame(const VpDescriptor& d, bool trailer) const;
  phy::Frame build_data_frame(const CmapDataFrame& data) const;
  phy::Frame build_integrated_frame(const VpDescriptor& d,
                                    const CmapDataFrame& data) const;

  // Receiver path. `vp_start`/`vp_end` place the whole virtual packet in
  // time (reconstructed from the delimiter's transmission-time fields).
  void handle_delimiter(const VpDescriptor& d, bool is_trailer,
                        sim::Time vp_start, sim::Time vp_end);
  VpRxContext& context_for(phy::NodeId src, std::uint32_t vp_seq);
  void handle_data(const CmapDataFrame& data, double rssi_dbm);
  void finalize_vp(std::uint64_t key, bool send_ack);
  void attribute_losses(const VpRxContext& ctx);
  void send_vp_ack(phy::NodeId to);
  void handle_ilist(const InterfererListFrame& il);

  // Control plane.
  void schedule_ilist();
  void broadcast_ilist();

  static std::uint64_t ctx_key(phy::NodeId src, std::uint32_t vp_seq) {
    return (static_cast<std::uint64_t>(src) << 32) | vp_seq;
  }

  sim::Simulator& sim_;
  phy::Radio& radio_;
  CmapConfig config_;
  sim::Rng rng_;
  trace::TraceHook trace_;
  metrics::MetricsHook metrics_;

  RxHandler rx_handler_;
  DrainHandler drain_handler_;
  mac::MacStats stats_;
  Counters counters_;
  mac::DupFilter dup_filter_;

  // Sender state.
  State state_ = State::kIdle;
  std::deque<mac::Packet> fresh_queue_;
  std::deque<std::uint32_t> retx_queue_;
  std::unordered_map<std::uint32_t, Outstanding> unacked_;
  SendWindow window_;
  LossBackoff backoff_;
  std::uint32_t next_seq_ = 0;
  std::uint32_t next_vp_seq_ = 0;
  std::vector<phy::Frame> vp_frames_;  // current VP, in transmit order
  std::size_t vp_frame_index_ = 0;
  phy::NodeId vp_dst_ = 0;
  bool vp_is_broadcast_ = false;
  sim::EventId defer_event_;
  sim::EventId ack_wait_event_;
  sim::EventId backoff_event_;
  sim::EventId retx_event_;
  sim::EventId ack_tx_event_;
  std::size_t last_skip_offset_ = 0;  // per-destination queue rotation
  // start_vp's per-VP lists, kept across VPs so that building one
  // allocates only the frames it sends.
  std::vector<std::uint32_t> vp_seqs_;
  std::vector<const mac::Packet*> vp_packets_;
  std::vector<bool> vp_is_retx_;
  std::vector<CmapDataFrame> vp_data_frames_;

  // Shared conflict-map state.
  OngoingList ongoing_;
  DeferTable defer_table_;
  InterfererTracker tracker_;
  std::deque<ForeignTx> foreign_;

  // Receiver state.
  std::unordered_map<std::uint64_t, VpRxContext> rx_contexts_;
  std::unordered_map<phy::NodeId, PerSenderRx> per_sender_;
  // attribute_losses' per-packet interferer lists, kept across calls.
  std::vector<phy::NodeId> loss_concurrent_;
  std::vector<phy::WifiRate> loss_rates_;
};

}  // namespace cmap::core

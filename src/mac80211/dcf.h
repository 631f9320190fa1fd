// 802.11 DCF (CSMA/CA) — the paper's baseline. Three variants, selected by
// config, correspond exactly to the curves in Figures 12/13/15/17:
//   * carrier_sense=true,  acks=true   — "CS, acks" (the status quo)
//   * carrier_sense=false, acks=true   — "CS off, acks"
//   * carrier_sense=false, acks=false  — "CS off, no acks"
// Implements DIFS + slotted contention-window backoff with freezing,
// stop-and-wait ACK with retry limit and exponential CW growth.
//
// Contention runs on one timer. Once the medium is idle, resume_contention()
// schedules a single event at difs_end + backoff_slots * slot, where
// difs_end is now + DIFS; it fires only if the medium stays idle that long.
// A freeze (busy carrier, or an ACK this node sends) cancels the event and
// takes off the slots that fully elapsed, floor((now - difs_end) / slot),
// none during DIFS. Tie rule: a slot boundary at the freeze instant counts
// as elapsed. That is what a countdown with one event per slot did when an
// arrival raised the carrier: deliveries sort after local events at one
// instant (sim/event_queue.h), so the slot event ran first. While
// cs_signal_dbm equals sensitivity_dbm (every registry scenario), an
// arrival is the only thing that can raise the carrier while the radio is
// idle. With cs_signal_dbm above sensitivity_dbm a lock (a local event)
// can raise it too; at a slot boundary that edge now follows the tie rule
// rather than the same-instant queue order. So does an ACK sent at a
// boundary (only carrier-sense-off runs send one mid-countdown), which the
// per-slot chain, having queued the ACK before the slot event, did not
// count. If the count runs out while an ACK is owed, the attempt waits
// until the ACK is off the air (attempt_tx).
#pragma once

#include <deque>

#include "mac/dup_filter.h"
#include "mac/mac.h"
#include "mac/wire.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace cmap::mac80211 {

struct DcfConfig {
  bool carrier_sense = true;
  bool acks = true;
  int cw_min = 15;    // initial contention window (slots)
  int cw_max = 1023;  // cap after exponential growth
  int retry_limit = 7;
  std::size_t queue_limit = 64;
  phy::WifiRate data_rate = phy::WifiRate::k6Mbps;
  phy::WifiRate control_rate = phy::WifiRate::k6Mbps;
  sim::Time slot = 9 * sim::kNsPerUs;
  sim::Time sifs = 16 * sim::kNsPerUs;

  sim::Time difs() const { return sifs + 2 * slot; }
  sim::Time ack_timeout() const {
    return sifs + slot + phy::frame_airtime(control_rate, mac::kAckBytes) +
           10 * sim::kNsPerUs;
  }

  bool operator==(const DcfConfig&) const = default;
};

/// Abort naming the first invalid field (DcfMac and World both run it).
void validate(const DcfConfig& config);

class DcfMac final : public mac::Mac, public phy::RadioListener {
 public:
  DcfMac(sim::Simulator& simulator, phy::Radio& radio, DcfConfig config,
         sim::Rng rng);

  // mac::Mac
  bool send(mac::Packet packet) override;
  void set_rx_handler(RxHandler handler) override { rx_handler_ = handler; }
  void set_drain_handler(DrainHandler handler) override {
    drain_handler_ = handler;
  }
  std::size_t queue_depth() const override { return queue_.size(); }
  const mac::MacStats& stats() const override { return stats_; }

  const DcfConfig& config() const { return config_; }
  int current_cw() const { return cw_; }

  // phy::RadioListener
  void on_rx_end(const phy::Frame& frame, const phy::RxResult& result) override;
  void on_cca(bool busy) override;
  void on_tx_end(const phy::Frame& frame) override;

 private:
  enum class State { kIdle, kContend, kTx, kWaitAck };

  void begin_service();          // draw backoff for the head packet
  void resume_contention();      // (re)arm DIFS + remaining backoff
  void attempt_tx();
  void cancel_contention_timers();  // freeze: count the elapsed slots
  void on_ack_timeout();
  void tx_success();
  void drop_head();
  void serve_next();
  void send_ack(phy::NodeId to, std::uint32_t seq);

  bool medium_busy() const {
    return config_.carrier_sense && radio_.carrier_busy();
  }

  sim::Simulator& sim_;
  phy::Radio& radio_;
  DcfConfig config_;
  sim::Rng rng_;

  RxHandler rx_handler_;
  DrainHandler drain_handler_;
  mac::MacStats stats_;
  mac::DupFilter dup_filter_;

  std::deque<mac::Packet> queue_;
  State state_ = State::kIdle;
  int cw_ = 15;
  int retries_ = 0;
  int backoff_slots_ = 0;
  std::uint32_t next_seq_ = 0;
  std::uint32_t head_seq_ = 0;
  bool head_is_retry_ = false;

  // The contention timer (see the file comment), or the wait before a
  // postponed attempt once an ACK is off the air.
  sim::EventId contention_event_;
  sim::Time difs_end_ = 0;
  sim::EventId ack_timeout_event_;
  sim::EventId ack_tx_event_;  // pending SIFS-delayed ACK transmission
  bool sending_ack_ = false;
};

}  // namespace cmap::mac80211

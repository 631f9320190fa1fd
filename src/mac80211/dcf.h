// 802.11 DCF (CSMA/CA) — the paper's baseline. Three variants, selected by
// config, correspond exactly to the curves in Figures 12/13/15/17:
//   * carrier_sense=true,  acks=true   — "CS, acks" (the status quo)
//   * carrier_sense=false, acks=true   — "CS off, acks"
//   * carrier_sense=false, acks=false  — "CS off, no acks"
// Implements DIFS + slotted contention-window backoff with freezing,
// stop-and-wait ACK with retry limit and exponential CW growth.
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
  void resume_contention();      // (re)arm DIFS wait
  void on_difs_elapsed();
  void schedule_slot();
  void attempt_tx();
  void cancel_contention_timers();
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

  sim::EventId difs_event_;
  sim::EventId slot_event_;
  sim::EventId ack_timeout_event_;
  sim::EventId ack_tx_event_;  // pending SIFS-delayed ACK transmission
  bool sending_ack_ = false;
};

}  // namespace cmap::mac80211

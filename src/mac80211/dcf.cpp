#include "mac80211/dcf.h"

#include <algorithm>
#include <memory>

#include "sim/assert.h"

namespace cmap::mac80211 {

void validate(const DcfConfig& config) {
  // Backoff draws from [0, cw]: a negative or inverted window has no
  // slots to draw; a zero slot or SIFS collapses every interframe gap.
  constexpr const char* kConfig = "DcfConfig";
  sim::require_valid(config.cw_min >= 0, kConfig, "cw_min", config.cw_min);
  sim::require_valid(config.cw_max >= config.cw_min, kConfig, "cw_max",
                     config.cw_max);
  sim::require_valid(config.retry_limit >= 0, kConfig, "retry_limit",
                     config.retry_limit);
  sim::require_valid(config.queue_limit >= 1, kConfig, "queue_limit",
                     static_cast<double>(config.queue_limit));
  sim::require_valid(config.slot > 0, kConfig, "slot",
                     static_cast<double>(config.slot));
  sim::require_valid(config.sifs > 0, kConfig, "sifs",
                     static_cast<double>(config.sifs));
}

DcfMac::DcfMac(sim::Simulator& simulator, phy::Radio& radio, DcfConfig config,
               sim::Rng rng)
    : sim_(simulator),
      radio_(radio),
      config_(config),
      rng_(rng),
      cw_(config.cw_min) {
  validate(config_);
  radio_.set_listener(this);
  // Only carrier sense reads CCA edges (on_cca); without it the radio
  // skips their bookkeeping.
  if (config_.carrier_sense) radio_.request_cca_notifications();
}

bool DcfMac::send(mac::Packet packet) {
  if (queue_.size() >= config_.queue_limit) {
    ++stats_.dropped_queue_full;
    return false;
  }
  ++stats_.enqueued;
  queue_.push_back(packet);
  if (state_ == State::kIdle) {
    begin_service();
  }
  return true;
}

void DcfMac::begin_service() {
  CMAP_ASSERT(!queue_.empty(), "begin_service with empty queue");
  head_seq_ = ++next_seq_;
  head_is_retry_ = false;
  state_ = State::kContend;
  backoff_slots_ = static_cast<int>(rng_.uniform_int(0, cw_));
  resume_contention();
}

void DcfMac::resume_contention() {
  if (state_ != State::kContend) return;
  cancel_contention_timers();
  if (medium_busy()) return;  // on_cca(false) will re-arm
  difs_end_ = sim_.now() + config_.difs();
  contention_event_ =
      sim_.at(difs_end_ + backoff_slots_ * config_.slot, [this] {
        backoff_slots_ = 0;
        attempt_tx();
      });
}

void DcfMac::cancel_contention_timers() {
  if (!contention_event_.pending()) return;
  contention_event_.cancel();
  // Freeze the counter: take off every slot whose boundary is at or before
  // now (the tie rule in dcf.h). None inside DIFS, and none once the count
  // ran out (the event is then the ACK postponement).
  backoff_slots_ -= static_cast<int>(std::clamp<sim::Time>(
      (sim_.now() - difs_end_) / config_.slot, 0, backoff_slots_));
}

void DcfMac::attempt_tx() {
  CMAP_ASSERT(state_ == State::kContend, "attempt_tx outside contention");
  // An ACK we owe (or are sending) outranks our data: postpone the attempt
  // until the ACK is off the air.
  if (ack_tx_event_.pending() || sending_ack_ || radio_.transmitting()) {
    contention_event_ = sim_.in(
        config_.sifs + phy::frame_airtime(config_.control_rate,
                                          mac::kAckBytes),
        [this] {
          if (state_ == State::kContend) resume_contention();
        });
    return;
  }
  const mac::Packet& head = queue_.front();
  auto data = std::make_shared<mac::DataFrame>();
  data->src = radio_.id();
  data->dst = head.dst;
  data->seq = head_seq_;
  data->retry = head_is_retry_;
  data->packet = head;

  phy::Frame frame;
  frame.rate = config_.data_rate;
  frame.segments = {{phy::SegmentKind::kWhole, data->wire_bytes()}};
  frame.payload = data;

  cancel_contention_timers();
  state_ = State::kTx;
  ++stats_.data_frames_sent;
  if (head_is_retry_) ++stats_.retransmissions;
  radio_.transmit(std::move(frame));
}

void DcfMac::on_tx_end(const phy::Frame& frame) {
  if (sending_ack_) {
    sending_ack_ = false;
    // If a data packet was mid-contention, resume it.
    if (state_ == State::kContend) resume_contention();
    return;
  }
  if (state_ != State::kTx) return;
  const auto* data = dynamic_cast<const mac::DataFrame*>(frame.payload.get());
  CMAP_ASSERT(data != nullptr, "DCF transmitted a non-data frame");
  const bool wants_ack =
      config_.acks && data->dst != phy::kBroadcastId;
  if (!wants_ack) {
    tx_success();
    return;
  }
  state_ = State::kWaitAck;
  ack_timeout_event_ =
      sim_.in(config_.ack_timeout(), [this] { on_ack_timeout(); });
}

void DcfMac::on_ack_timeout() {
  if (state_ != State::kWaitAck) return;
  ++stats_.ack_timeouts;
  ++retries_;
  if (retries_ > config_.retry_limit) {
    drop_head();
    return;
  }
  cw_ = std::min(2 * (cw_ + 1) - 1, config_.cw_max);
  head_is_retry_ = true;
  state_ = State::kContend;
  backoff_slots_ = static_cast<int>(rng_.uniform_int(0, cw_));
  resume_contention();
}

void DcfMac::tx_success() {
  queue_.pop_front();
  retries_ = 0;
  cw_ = config_.cw_min;
  serve_next();
}

void DcfMac::drop_head() {
  ++stats_.dropped_retry_limit;
  queue_.pop_front();
  retries_ = 0;
  cw_ = config_.cw_min;
  serve_next();
}

void DcfMac::serve_next() {
  // Let the source refill before deciding whether to go idle; state is
  // still kTx/kWaitAck here so a reentrant send() cannot double-start.
  if (drain_handler_) drain_handler_();
  if (!queue_.empty()) {
    begin_service();
  } else {
    state_ = State::kIdle;
  }
}

void DcfMac::on_cca(bool busy) {
  if (!config_.carrier_sense || state_ != State::kContend) return;
  if (busy) {
    cancel_contention_timers();  // freeze the backoff counter
  } else {
    resume_contention();
  }
}

void DcfMac::on_rx_end(const phy::Frame& frame, const phy::RxResult& result) {
  if (!result.all_ok()) {
    ++stats_.corrupt_frames;
    return;
  }
  if (const auto* data =
          dynamic_cast<const mac::DataFrame*>(frame.payload.get())) {
    if (data->dst != radio_.id() && data->dst != phy::kBroadcastId) return;
    const bool dup = dup_filter_.seen_before(data->src, data->seq);
    if (dup) {
      ++stats_.duplicates;
    } else {
      ++stats_.delivered;
    }
    if (rx_handler_) {
      rx_handler_(data->packet, RxInfo{result.rssi_dbm, dup});
    }
    if (config_.acks && data->dst == radio_.id()) {
      const phy::NodeId to = data->src;
      const std::uint32_t seq = data->seq;
      ack_tx_event_ = sim_.in(config_.sifs, [this, to, seq] {
        send_ack(to, seq);
      });
    }
    return;
  }
  if (const auto* ack =
          dynamic_cast<const mac::AckFrame*>(frame.payload.get())) {
    if (ack->dst != radio_.id()) return;
    if (state_ != State::kWaitAck || ack->seq != head_seq_) return;
    ack_timeout_event_.cancel();
    ++stats_.acks_received;
    tx_success();
  }
}

void DcfMac::send_ack(phy::NodeId to, std::uint32_t seq) {
  // The SIFS gap is shorter than any DIFS, so nobody legitimate talks over
  // an ACK; but if this node itself started transmitting, drop the ACK.
  if (radio_.transmitting()) return;
  auto ack = std::make_shared<mac::AckFrame>();
  ack->src = radio_.id();
  ack->dst = to;
  ack->seq = seq;
  phy::Frame frame;
  frame.rate = config_.control_rate;
  frame.segments = {{phy::SegmentKind::kWhole, ack->wire_bytes()}};
  frame.payload = ack;
  ++stats_.acks_sent;
  sending_ack_ = true;
  // Sending the ACK invalidates any frozen contention timer state; it is
  // re-armed when the ACK finishes (on_tx_end).
  cancel_contention_timers();
  radio_.transmit(std::move(frame));
}

}  // namespace cmap::mac80211

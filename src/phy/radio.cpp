#include "phy/radio.h"

#include <algorithm>
#include <cmath>

#include "phy/medium.h"
#include "phy/units.h"
#include "sim/assert.h"

namespace cmap::phy {

Radio::Radio(sim::Simulator& simulator, Medium& medium, NodeId id,
             Position pos, RadioConfig config,
             std::shared_ptr<const ErrorModel> error_model, sim::Rng rng)
    : sim_(simulator),
      medium_(medium),
      id_(id),
      position_(pos),
      config_(config),
      error_model_(std::move(error_model)),
      rng_(rng),
      tracker_(dbm_to_mw(config.noise_floor_dbm)),
      sinr_scale_(db_to_linear(config.implementation_loss_db)),
      cs_signal_mw_(dbm_to_mw(config.cs_signal_dbm)),
      energy_detect_mw_(dbm_to_mw(config.energy_detect_dbm)),
      sensitivity_mw_(dbm_to_mw(config.sensitivity_dbm)),
      capture_ratio_(db_to_linear(config.capture_margin_db)),
      preamble_min_sinr_(db_to_linear(config.preamble_min_sinr_db)) {
  // Every level feeds a dB conversion: a NaN or infinity would silently
  // disable locking, sensing or capture. A negative capture margin would
  // let a weaker arrival steal the lock.
  const auto require_finite = [](const char* field, double value) {
    sim::require_valid(std::isfinite(value), "RadioConfig", field, value);
  };
  require_finite("tx_power_dbm", config_.tx_power_dbm);
  require_finite("noise_floor_dbm", config_.noise_floor_dbm);
  require_finite("sensitivity_dbm", config_.sensitivity_dbm);
  require_finite("cs_signal_dbm", config_.cs_signal_dbm);
  require_finite("energy_detect_dbm", config_.energy_detect_dbm);
  require_finite("preamble_min_sinr_db", config_.preamble_min_sinr_db);
  require_finite("implementation_loss_db", config_.implementation_loss_db);
  sim::require_valid(std::isfinite(config_.capture_margin_db) &&
                         config_.capture_margin_db >= 0.0,
                     "RadioConfig", "capture_margin_db",
                     config_.capture_margin_db);
  medium_.attach(this);
  trace_.bind(medium_.tracer_for(id_), id_);
  metrics_.bind(medium_.metrics(), metrics::Domain::kPhy);
}

void Radio::set_position(Position pos) {
  position_ = pos;
  medium_.on_position_changed(*this);
}

void Radio::transmit(Frame frame) {
  CMAP_ASSERT(state_ != State::kTx, "transmit while already transmitting");
  if (state_ == State::kRx) {
    ++counters_.aborted_by_tx;
    metrics_.inc(metrics::Counter::kPhyCollisionLocalTx);
    if (trace_.wants(trace::Category::kPhyCollision)) {
      trace_.tracer->record(
          sim_.now(), trace::PhyCollisionRecord{
                          id_, lock_frame_->id,
                          trace::CollisionReason::kLocalTx});
    }
    abort_rx();
  }
  // Sender-derived id (see make_frame_id): identical between the serial
  // and PDES executives, where a medium-global counter would not be.
  frame.id = make_frame_id(id_, ++tx_seq_);
  frame.tx_node = id_;
  frame.duration = frame_airtime(frame.rate, frame.size_bytes());
  auto shared = std::make_shared<const Frame>(std::move(frame));
  state_ = State::kTx;
  tx_frame_ = shared;
  prev_tx_end_ = tx_end_;
  tx_start_ = sim_.now();
  tx_end_ = sim_.now() + shared->duration;
  ++counters_.frames_sent;
  if (trace_.wants(trace::Category::kPhyTx)) {
    trace_.tracer->record(
        tx_start_,
        trace::PhyTxRecord{id_, shared->id,
                           static_cast<std::uint32_t>(shared->rate),
                           static_cast<std::uint32_t>(shared->size_bytes()),
                           shared->duration});
  }
  medium_.transmit(*this, shared);
  sim_.in(shared->duration, [this] { finish_tx(); });
  update_cca();
}

void Radio::finish_tx() {
  CMAP_ASSERT(state_ == State::kTx, "finish_tx in wrong state");
  state_ = State::kIdle;
  auto frame = tx_frame_;
  tx_frame_.reset();
  update_cca();
  if (listener_) listener_->on_tx_end(*frame);
}

void Radio::deliver(std::shared_ptr<const Frame> frame, double power_mw,
                    sim::Time start) {
  const sim::Time end = start + frame->duration;
  tracker_.prune(sim_.now());
  tracker_.add(Signal{frame->id, power_mw, start, end});
  if (config_.salvage_enabled) {
    sim_.at(end, [this, frame] { on_signal_end(*frame); });
  }
  note_strong(power_mw, end);

  if (power_mw >= sensitivity_mw_) {
    const bool idle_lock_candidate = state_ == State::kIdle;
    const bool capture_candidate =
        state_ == State::kRx && config_.capture_enabled &&
        power_mw >= lock_power_mw_ * capture_ratio_;
    if (idle_lock_candidate || capture_candidate) {
      sim_.at(start + kPlcpDuration,
              [this, frame = std::move(frame)]() mutable {
                evaluate_preamble(std::move(frame));
              });
    }
  }
  update_cca();
}

bool Radio::inert_arrival(double power_mw, sim::Time start) const {
  // Still transmitting when the signal starts, so deliver() would find the
  // radio in kTx: no lock, no capture, and nothing to salvage at its end.
  const bool talked_over = state_ == State::kTx && tx_end_ > start;
  if (power_mw >= sensitivity_mw_ && !talked_over) return false;
  if (!watch_cca_) return true;
  // No strong_until_ to raise, and a carrier busy across the start for a
  // reason that outlasts it: update_cca() finds no edge and arms nothing.
  return power_mw < cs_signal_mw_ && (talked_over || strong_until_ > start);
}

void Radio::add_interference(const Signal& signal) {
  // Raw energy (frame id 0) may live in an InterferenceTracker, but radio
  // reception is keyed on frame ids throughout.
  CMAP_ASSERT(signal.frame_id != 0, "radio delivery requires a frame");
  tracker_.prune(sim_.now());
  tracker_.add(signal);
}

void Radio::evaluate_preamble(std::shared_ptr<const Frame> frame) {
  if (state_ == State::kTx) return;
  const std::uint64_t frame_id = frame->id;
  // The signal is still on the air, and prune() keeps every such signal.
  const Signal* sig = tracker_.find(frame_id);
  CMAP_ASSERT(sig != nullptr, "signal missing at preamble evaluation");

  if (state_ == State::kRx) {
    if (!config_.capture_enabled || frame_id == lock_frame_->id) return;
    if (sig->power_mw < lock_power_mw_ * capture_ratio_) return;
  }

  const double sinr =
      tracker_.min_sinr(frame_id, sig->start, sig->start + kPlcpDuration);
  if (sinr < preamble_min_sinr_) {
    ++counters_.preamble_failures;
    metrics_.inc(metrics::Counter::kPhyCollisionPreambleSinr);
    if (trace_.wants(trace::Category::kPhyCollision)) {
      trace_.tracer->record(
          sim_.now(),
          trace::PhyCollisionRecord{id_, frame_id,
                                    trace::CollisionReason::kPreambleSinr});
    }
    return;
  }

  if (state_ == State::kRx) {
    ++counters_.aborted_by_capture;
    metrics_.inc(metrics::Counter::kPhyCollisionCaptured);
    if (trace_.wants(trace::Category::kPhyCollision)) {
      trace_.tracer->record(
          sim_.now(), trace::PhyCollisionRecord{
                          id_, lock_frame_->id,
                          trace::CollisionReason::kCaptured});
    }
    abort_rx();
  }
  lock(std::move(frame), *sig);
}

void Radio::lock(std::shared_ptr<const Frame> frame, const Signal& sig) {
  CMAP_ASSERT(state_ == State::kIdle, "lock in wrong state");
  state_ = State::kRx;
  lock_frame_ = std::move(frame);
  lock_power_mw_ = sig.power_mw;
  lock_min_sinr_db_ = 1e9;
  const auto& segments = lock_frame_->segments;
  segment_results_.assign(segments.size(), std::nullopt);
  ++counters_.locks;

  // Integrated mode: deliver the header verdict as soon as its last bit is
  // on the air ("streaming" property of the PHY abstraction, §2.1).
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].kind == SegmentKind::kHeader) {
      const auto [begin, end] = segment_window(*lock_frame_, sig, i);
      const std::uint64_t fid = lock_frame_->id;
      header_event_ = sim_.at(end, [this, fid, i] {
        if (!locked_to(fid)) return;
        const Signal* s = tracker_.find(fid);
        CMAP_ASSERT(s != nullptr, "locked signal missing at header decode");
        double sinr_db = 0.0;
        const bool ok = evaluate_segment(*lock_frame_, *s, i, &sinr_db);
        segment_results_[i] = ok;
        if (listener_) listener_->on_header_decoded(*lock_frame_, ok);
      });
      break;
    }
  }

  const sim::Time end = sig.end;
  rx_finish_event_ = sim_.at(end, [this] { finish_rx(); });
  update_cca();
  if (listener_) listener_->on_rx_start(*lock_frame_, end);
}

std::pair<sim::Time, sim::Time> Radio::segment_window(
    const Frame& frame, const Signal& sig, std::size_t index) const {
  const auto& segments = frame.segments;
  std::size_t total = 0, before = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i < index) before += segments[i].bytes;
    total += segments[i].bytes;
  }
  CMAP_ASSERT(total > 0, "frame with no payload bytes");
  const sim::Time payload_begin = sig.start + kPlcpDuration;
  const double span = static_cast<double>(sig.end - payload_begin);
  const auto begin =
      payload_begin +
      static_cast<sim::Time>(span * static_cast<double>(before) /
                             static_cast<double>(total));
  const auto end =
      payload_begin +
      static_cast<sim::Time>(
          span * static_cast<double>(before + segments[index].bytes) /
          static_cast<double>(total));
  return {begin, end};
}

bool Radio::evaluate_segment(const Frame& frame, const Signal& sig,
                             std::size_t index, double* min_sinr_db) {
  const auto [begin, end] = segment_window(frame, sig, index);
  const double bits = 8.0 * static_cast<double>(frame.segments[index].bytes);
  const ChunkOutcome outcome =
      tracker_.evaluate(frame.id, begin, end, bits, frame.rate, *error_model_,
                        sinr_scale_);
  if (min_sinr_db != nullptr) *min_sinr_db = linear_to_db(outcome.min_sinr);
  return rng_.bernoulli(outcome.success_prob);
}

void Radio::finish_rx() {
  CMAP_ASSERT(state_ == State::kRx, "finish_rx in wrong state");
  const Frame& frame = *lock_frame_;
  const Signal* sig = tracker_.find(frame.id);
  CMAP_ASSERT(sig != nullptr, "locked signal missing at finish");

  RxResult result;
  result.rssi_dbm = mw_to_dbm(sig->power_mw);
  result.segment_ok.resize(frame.segments.size());
  double worst_db = 1e9;
  for (std::size_t i = 0; i < result.segment_ok.size(); ++i) {
    if (segment_results_[i].has_value()) {
      result.segment_ok[i] = *segment_results_[i];
      continue;
    }
    double sinr_db = 0.0;
    result.segment_ok[i] = evaluate_segment(frame, *sig, i, &sinr_db);
    worst_db = std::min(worst_db, sinr_db);
  }
  result.min_sinr_db = worst_db;

  if (result.all_ok()) {
    ++counters_.rx_ok;
    metrics_.inc(metrics::Counter::kPhyRxOk);
  } else {
    ++counters_.rx_corrupt;
    metrics_.inc(metrics::Counter::kPhyRxCorrupt);
  }
  if (trace_.wants(trace::Category::kPhyRx)) {
    // Centi-dB, clamped: worst_db is a +-1e9 sentinel when every segment
    // verdict was precomputed (integrated header path).
    const double cdb = std::clamp(result.min_sinr_db * 100.0, -20000.0,
                                  20000.0);
    trace_.tracer->record(
        sim_.now(),
        trace::PhyRxRecord{id_, frame.id, frame.tx_node, result.all_ok(),
                           static_cast<std::int32_t>(cdb)});
  }

  // Keep the frame alive across the listener call.
  const std::shared_ptr<const Frame> done = std::move(lock_frame_);
  state_ = State::kIdle;
  header_event_.cancel();
  update_cca();
  if (listener_) listener_->on_rx_end(*done, result);
}

void Radio::abort_rx() {
  CMAP_ASSERT(state_ == State::kRx, "abort_rx in wrong state");
  rx_finish_event_.cancel();
  header_event_.cancel();
  state_ = State::kIdle;
  lock_frame_.reset();
  // No listener notification: a receiver that loses lock never learns what
  // the frame would have contained. No CCA update either: both callers
  // set the next state (kTx, or a capturing lock) and update it then, so
  // the carrier a lost lock held never reads idle for an instant.
}

void Radio::request_cca_notifications() {
  if (watch_cca_) return;
  watch_cca_ = true;
  const sim::Time now = sim_.now();
  for (const Signal& sig : tracker_.signals()) {
    if (sig.start <= now) {
      // Inert arrivals went around deliver(), which tracks strong_until_.
      note_strong(sig.power_mw, sig.end);
      continue;
    }
    // An inert arrival still in flight: replay the deliver() event it
    // skipped, at its rank, as far as a watching radio needs it.
    const double power_mw = sig.power_mw;
    const sim::Time end = sig.end;
    sim_.at_ranked(sig.start, sim::delivery_rank(sig.frame_id, id_),
                   [this, power_mw, end] {
                     note_strong(power_mw, end);
                     update_cca();
                   });
  }
  last_cca_busy_ = carrier_busy();
  update_cca();  // no edge; arms the wake if the carrier is busy
}

void Radio::on_signal_end(const Frame& frame) {
  const Signal* sig = tracker_.find(frame.id);
  CMAP_ASSERT(sig != nullptr, "signal missing at its end");
  if (!locked_to(frame.id)) maybe_salvage(frame, *sig);
}

void Radio::maybe_salvage(const Frame& frame, const Signal& sig) {
  if (sig.power_mw < sensitivity_mw_) return;
  // A half-duplex radio hears nothing of a frame it talked over. Only the
  // latest transmission can start as late as sig.end (now); an earlier one
  // overlaps iff it ran past sig.start, and if any did, the one just
  // before the latest did.
  const bool tx_overlap =
      (tx_start_ >= 0 && tx_start_ < sig.end && tx_end_ > sig.start) ||
      prev_tx_end_ > sig.start;
  if (tx_overlap) return;

  RxResult result;
  result.rssi_dbm = mw_to_dbm(sig.power_mw);
  result.segment_ok.assign(frame.segments.size(), false);
  bool any = false;
  double worst_db = 1e9;
  for (std::size_t i = 0; i < frame.segments.size(); ++i) {
    const SegmentKind kind = frame.segments[i].kind;
    if (kind != SegmentKind::kHeader && kind != SegmentKind::kTrailer)
      continue;
    double sinr_db = 0.0;
    result.segment_ok[i] = evaluate_segment(frame, sig, i, &sinr_db);
    worst_db = std::min(worst_db, sinr_db);
    any = any || result.segment_ok[i];
  }
  result.min_sinr_db = worst_db;
  if (!any) return;
  ++counters_.salvages;
  if (listener_) listener_->on_salvage(frame, result);
}

bool Radio::carrier_busy() const {
  if (state_ != State::kIdle) return true;
  // A strong signal is on the air until strong_until_ (see radio.h).
  if (strong_until_ > sim_.now()) return true;
  const ActivePower p = tracker_.active_power(sim_.now());
  return p.max_mw >= cs_signal_mw_ || p.total_mw >= energy_detect_mw_;
}

void Radio::update_cca() {
  if (!watch_cca_) return;
  const bool busy = carrier_busy();
  if (busy && state_ == State::kIdle && !cca_wake_pending_) arm_cca_wake();
  if (busy == last_cca_busy_) return;
  last_cca_busy_ = busy;
  if (listener_) listener_->on_cca(busy);
}

void Radio::arm_cca_wake() {
  // Idle and busy, so some delivered signal is on the air: the carrier can
  // turn idle no earlier than the end of the last strong one, or, when
  // energy detect alone holds it, than the first end (see the file
  // comment in radio.h).
  const sim::Time now = sim_.now();
  sim::Time at = strong_until_;
  if (at <= now) {
    at = sim::kTimeForever;
    for (const Signal& sig : tracker_.signals()) {
      if (sig.start <= now && sig.end > now) at = std::min(at, sig.end);
    }
  }
  CMAP_ASSERT(at != sim::kTimeForever, "busy idle carrier with no signal");
  cca_wake_pending_ = true;
  sim_.at(at, [this] {
    cca_wake_pending_ = false;
    ++counters_.cca_wakes;
    update_cca();
  });
}

}  // namespace cmap::phy

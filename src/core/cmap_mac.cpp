#include "core/cmap_mac.h"

#include <algorithm>
#include <bit>
#include <iterator>

#include "phy/medium.h"
#include "sim/assert.h"

namespace cmap::core {
namespace {

constexpr sim::Time kSifs = 16 * sim::kNsPerUs;
// How far back foreign-transmission records are kept for loss attribution.
constexpr sim::Time kForeignHorizon = 2 * sim::kNsPerSec;
constexpr std::size_t kMaxForeignRecords = 512;
constexpr std::size_t kMaxRxContexts = 128;
// Retry cadence when the radio happens to be busy with a control frame.
constexpr sim::Time kBusyRetry = 250 * sim::kNsPerUs;

}  // namespace

DeferDecision DeferDecider::decide(phy::NodeId dst, phy::WifiRate my_rate,
                                   sim::Time now) const {
  DeferDecision d;
  sim::Time until = sim::kTimeForever;
  ongoing_.for_each_active(now, [&](const OngoingTx& tx) {
    if (tx.src == self_) return;  // never defer to ourselves
    const bool dst_busy = tx.src == dst || tx.dst == dst;
    const phy::WifiRate their_rate =
        annotate_rates_ ? tx.data_rate : kAnyRate;
    if (!dst_busy &&
        !table_.should_defer(dst, tx.src, tx.dst, now, my_rate, their_rate)) {
      return;
    }
    if (!d.defer) {
      d.defer = true;
      d.reason = dst_busy ? trace::DeferReason::kDstBusy
                          : trace::DeferReason::kConflictMap;
      d.blocker_src = tx.src;
      d.blocker_dst = tx.dst;
    }
    until = std::min(until, tx.end_time);
  });
  if (d.defer) d.until = until;
  return d;
}

double CmapMac::PerSenderRx::window_loss_rate() const {
  double expected = 0, got = 0;
  for (const auto& vp : recent_vps) {
    expected += vp.npackets;
    const std::uint64_t mask =
        vp.npackets >= 64 ? ~0ull : ((1ull << vp.npackets) - 1);
    got += std::popcount(vp.bitmap & mask);
  }
  if (expected <= 0) return 0.0;
  return 1.0 - got / expected;
}

CmapMac::SenderRxCounts CmapMac::rx_counts_from(phy::NodeId src) const {
  const auto it = per_sender_.find(src);
  return it == per_sender_.end() ? SenderRxCounts{} : it->second.counts;
}

void validate(const CmapConfig& config) {
  // ACK bitmaps carry 64 packets per VP (finalize_vp, SendWindow::on_ack);
  // an empty window never admits a packet.
  sim::require_valid(config.nvpkt >= 1 && config.nvpkt <= 64, "CmapConfig",
                     "nvpkt", config.nvpkt);
  sim::require_valid(config.nwindow_vps >= 1, "CmapConfig", "nwindow_vps",
                     config.nwindow_vps);
  CMAP_ASSERT(config.mode != PhyMode::kIntegrated || config.nvpkt == 1,
              "integrated mode carries one packet per frame");
}

CmapMac::CmapMac(sim::Simulator& simulator, phy::Radio& radio,
                 CmapConfig config, sim::Rng rng)
    : sim_(simulator),
      radio_(radio),
      config_(config),
      rng_(rng),
      window_(config.window_packets()),
      backoff_(config.cw_start, config.cw_max, config.l_backoff),
      ongoing_(),
      defer_table_(config.defer_entry_ttl, config.annotate_rates),
      tracker_(config.l_interf, config.min_interf_samples,
               config.interferer_halflife) {
  validate(config_);
  trace_.bind(radio_.medium().tracer_for(radio_.id()), radio_.id());
  defer_table_.set_tracer(trace_.tracer, radio_.id());
  ongoing_.set_tracer(trace_.tracer, radio_.id());
  metrics_.bind(radio_.medium().metrics(), metrics::Domain::kMac);
  defer_table_.set_metrics(radio_.medium().metrics());
  ongoing_.set_metrics(radio_.medium().metrics());
  radio_.set_listener(this);
  schedule_ilist();
}

bool CmapMac::send(mac::Packet packet) {
  if (fresh_queue_.size() >= config_.queue_limit) {
    ++stats_.dropped_queue_full;
    return false;
  }
  ++stats_.enqueued;
  fresh_queue_.push_back(packet);
  if (state_ == State::kIdle) try_send();
  return true;
}

// ---------------------------------------------------------------- sender --

void CmapMac::try_send() {
  if (state_ != State::kIdle) return;
  if (radio_.transmitting()) {
    // A control frame (ACK / interferer list) is on the air; come back.
    sim_.in(kBusyRetry, [this] {
      if (state_ == State::kIdle) try_send();
    });
    return;
  }
  const sim::Time now = sim_.now();

  // Pick the destination we would serve next.
  phy::NodeId dst = 0;
  bool have_work = false;
  while (!retx_queue_.empty()) {
    auto it = unacked_.find(retx_queue_.front());
    if (it == unacked_.end()) {
      retx_queue_.pop_front();  // acked in the meantime
      continue;
    }
    dst = it->second.packet.dst;
    have_work = true;
    break;
  }
  if (!have_work && !fresh_queue_.empty()) {
    dst = fresh_queue_.front().dst;
    // Broadcasts are unacknowledged and live outside the send window.
    if (dst != phy::kBroadcastId && !window_.can_admit()) {
      arm_retx_timer();
      return;
    }
    have_work = true;
  }
  if (!have_work) return;

  sim::Time recheck = 0;
  if (check_defer(dst, &recheck)) {
    // §3.2 optimization: while dst is blocked, another destination's
    // packet may be sendable.
    if (config_.per_dest_queues) {
      for (std::size_t off = 0; off < fresh_queue_.size(); ++off) {
        const std::size_t i =
            (off + last_skip_offset_) % fresh_queue_.size();
        const phy::NodeId alt = fresh_queue_[i].dst;
        if (alt == dst) continue;
        sim::Time unused = 0;
        if (!check_defer(alt, &unused) && window_.can_admit()) {
          last_skip_offset_ = i + 1;  // rotate: no destination starves
          start_vp(alt);
          return;
        }
      }
    }
    ++counters_.defer_events;
    ++stats_.deferrals;
    state_ = State::kDeferWait;
    const sim::Time when = std::max(recheck, now + 1);
    defer_event_ = sim_.at(when, [this] {
      state_ = State::kIdle;
      try_send();
    });
    return;
  }
  start_vp(dst);
}

bool CmapMac::check_defer(phy::NodeId dst, sim::Time* recheck_at) {
  const sim::Time now = sim_.now();
  const phy::WifiRate my_rate =
      config_.annotate_rates ? config_.data_rate : kAnyRate;
  const DeferDecision decision = decider().decide(dst, my_rate, now);
  if (decision.defer) *recheck_at = decision.until + config_.t_deferwait;
  if (metrics_.on()) {
    metrics_.inc(metrics::Counter::kMacSendDecisions);
    if (decision.defer) {
      metrics_.inc(decision.reason == trace::DeferReason::kDstBusy
                       ? metrics::Counter::kMacDeferDstBusy
                       : metrics::Counter::kMacDeferConflictMap);
    }
  }
  if (trace_.wants(trace::Category::kMacDefer)) {
    trace_.tracer->record(
        now, trace::MacDeferRecord{trace_.self, dst, decision.defer,
                                   decision.reason, decision.blocker_src,
                                   decision.blocker_dst, decision.until});
  }
  return decision.defer;
}

void CmapMac::start_vp(phy::NodeId dst) {
  if (dst == phy::kBroadcastId) {
    start_broadcast_vp();
    return;
  }
  const std::size_t nvpkt = static_cast<std::size_t>(config_.nvpkt);
  std::vector<std::uint32_t>& seqs = vp_seqs_;
  std::vector<const mac::Packet*>& packets = vp_packets_;
  std::vector<bool>& is_retx = vp_is_retx_;
  seqs.clear();
  packets.clear();
  is_retx.clear();

  // Retransmissions first (§3.3: unacked packets resent in sequence).
  while (seqs.size() < nvpkt && !retx_queue_.empty()) {
    const std::uint32_t seq = retx_queue_.front();
    auto it = unacked_.find(seq);
    if (it == unacked_.end()) {
      retx_queue_.pop_front();
      continue;
    }
    if (it->second.packet.dst != dst) break;
    if (it->second.transmissions >= config_.retx_limit) {
      retx_queue_.pop_front();
      window_.drop(seq);
      unacked_.erase(it);
      ++stats_.dropped_retry_limit;
      continue;
    }
    seqs.push_back(seq);
    packets.push_back(&it->second.packet);
    is_retx.push_back(true);
    retx_queue_.pop_front();
  }
  // Then fresh packets, as window space admits. Without per-destination
  // queues, service is strict FIFO (a mismatched head blocks — that is the
  // head-of-line behaviour §3.2's optimization removes); with them, scan
  // past other destinations' packets.
  bool moved_fresh = false;
  for (auto it = fresh_queue_.begin();
       it != fresh_queue_.end() && seqs.size() < nvpkt &&
       window_.outstanding() + seqs.size() < config_.window_packets();) {
    if (it->dst != dst) {
      if (!config_.per_dest_queues) break;
      ++it;
      continue;
    }
    const std::uint32_t seq = ++next_seq_;
    Outstanding o;
    o.packet = *it;
    it = fresh_queue_.erase(it);
    auto [slot, inserted] = unacked_.emplace(seq, std::move(o));
    CMAP_ASSERT(inserted, "sequence number reused");
    seqs.push_back(seq);
    packets.push_back(&slot->second.packet);
    is_retx.push_back(false);
    moved_fresh = true;
  }
  if (seqs.empty()) {
    // Nothing sendable to this destination after all; re-evaluate after a
    // real interval (never busy-loop the event queue).
    if (!retx_queue_.empty() || !fresh_queue_.empty()) {
      sim_.in(sim::milliseconds(1), [this] {
        if (state_ == State::kIdle) try_send();
      });
    }
    return;
  }

  const std::uint32_t vp_seq = ++next_vp_seq_;
  VpDescriptor d;
  d.src = radio_.id();
  d.dst = dst;
  d.vp_seq = vp_seq;
  d.npackets = static_cast<std::uint16_t>(seqs.size());
  d.data_rate = config_.data_rate;

  vp_frames_.clear();
  if (config_.mode == PhyMode::kShim) {
    // Timing: header airs first; data and trailer follow with no gap.
    const sim::Time hdr_air =
        phy::frame_airtime(config_.control_rate, kVpHeaderBytes);
    sim::Time data_air = 0;
    std::vector<CmapDataFrame>& data_frames = vp_data_frames_;
    data_frames.clear();
    data_frames.resize(seqs.size());
    for (std::size_t i = 0; i < seqs.size(); ++i) {
      auto& df = data_frames[i];
      df.src = d.src;
      df.dst = dst;
      df.seq = seqs[i];
      df.vp_seq = vp_seq;
      df.index = static_cast<std::uint16_t>(i);
      df.retry = is_retx[i];
      df.packet = *packets[i];
      data_air += phy::frame_airtime(config_.data_rate, df.wire_bytes());
    }
    const sim::Time trl_air =
        phy::frame_airtime(config_.control_rate, kVpHeaderBytes);

    VpDescriptor hd = d;
    hd.elapsed_through = hdr_air;
    hd.remaining_after = data_air + trl_air;
    vp_frames_.push_back(build_delim_frame(hd, /*trailer=*/false));
    for (auto& df : data_frames) {
      vp_frames_.push_back(build_data_frame(df));
    }
    VpDescriptor td = d;
    td.elapsed_through = hdr_air + data_air + trl_air;
    td.remaining_after = 0;
    vp_frames_.push_back(build_delim_frame(td, /*trailer=*/true));
  } else {
    CmapDataFrame df;
    df.src = d.src;
    df.dst = dst;
    df.seq = seqs[0];
    df.vp_seq = vp_seq;
    df.index = 0;
    df.retry = is_retx[0];
    df.packet = *packets[0];
    vp_frames_.push_back(build_integrated_frame(d, df));
  }

  window_.on_vp_sent(vp_seq, seqs);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    auto it = unacked_.find(seqs[i]);
    ++it->second.transmissions;
    ++stats_.data_frames_sent;
    if (is_retx[i]) ++stats_.retransmissions;
  }
  ++counters_.vps_sent;
  vp_dst_ = dst;
  vp_is_broadcast_ = false;
  vp_frame_index_ = 0;
  state_ = State::kSendingVp;
  if (moved_fresh && drain_handler_) drain_handler_();
  transmit_next_vp_frame();
}

void CmapMac::start_broadcast_vp() {
  // §3.6: a broadcast is checked against the conflict map like a unicast
  // (check_defer already ran) but is fire-and-forget: no window slot, no
  // ACK, no retransmission.
  const std::size_t nvpkt = static_cast<std::size_t>(config_.nvpkt);
  std::vector<mac::Packet> pkts;
  while (pkts.size() < nvpkt && !fresh_queue_.empty() &&
         fresh_queue_.front().dst == phy::kBroadcastId) {
    pkts.push_back(fresh_queue_.front());
    fresh_queue_.pop_front();
  }
  if (pkts.empty()) return;

  const std::uint32_t vp_seq = ++next_vp_seq_;
  VpDescriptor d;
  d.src = radio_.id();
  d.dst = phy::kBroadcastId;
  d.vp_seq = vp_seq;
  d.npackets = static_cast<std::uint16_t>(pkts.size());
  d.data_rate = config_.data_rate;

  vp_frames_.clear();
  std::vector<CmapDataFrame> data_frames(pkts.size());
  sim::Time data_air = 0;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    auto& df = data_frames[i];
    df.src = d.src;
    df.dst = phy::kBroadcastId;
    df.seq = ++next_seq_;
    df.vp_seq = vp_seq;
    df.index = static_cast<std::uint16_t>(i);
    df.packet = pkts[i];
    data_air += phy::frame_airtime(config_.data_rate, df.wire_bytes());
  }
  if (config_.mode == PhyMode::kShim) {
    const sim::Time hdr_air =
        phy::frame_airtime(config_.control_rate, kVpHeaderBytes);
    const sim::Time trl_air = hdr_air;
    VpDescriptor hd = d;
    hd.elapsed_through = hdr_air;
    hd.remaining_after = data_air + trl_air;
    vp_frames_.push_back(build_delim_frame(hd, false));
    for (auto& df : data_frames) vp_frames_.push_back(build_data_frame(df));
    VpDescriptor td = d;
    td.elapsed_through = hdr_air + data_air + trl_air;
    td.remaining_after = 0;
    vp_frames_.push_back(build_delim_frame(td, true));
  } else {
    vp_frames_.push_back(build_integrated_frame(d, data_frames[0]));
  }
  stats_.data_frames_sent += pkts.size();
  ++counters_.vps_sent;
  vp_dst_ = phy::kBroadcastId;
  vp_is_broadcast_ = true;
  vp_frame_index_ = 0;
  state_ = State::kSendingVp;
  if (drain_handler_) drain_handler_();
  transmit_next_vp_frame();
}

phy::Frame CmapMac::build_delim_frame(const VpDescriptor& d,
                                      bool trailer) const {
  auto delim = std::make_shared<VpDelimFrame>();
  delim->d = d;
  delim->is_trailer = trailer;
  phy::Frame f;
  f.rate = config_.control_rate;
  f.segments = {{phy::SegmentKind::kWhole, delim->wire_bytes()}};
  f.payload = delim;
  return f;
}

phy::Frame CmapMac::build_data_frame(const CmapDataFrame& data) const {
  auto payload = std::make_shared<CmapDataFrame>(data);
  phy::Frame f;
  f.rate = config_.data_rate;
  f.segments = {{phy::SegmentKind::kWhole, payload->wire_bytes()}};
  f.payload = payload;
  return f;
}

phy::Frame CmapMac::build_integrated_frame(const VpDescriptor& d,
                                           const CmapDataFrame& data) const {
  auto payload = std::make_shared<IntegratedDataFrame>();
  payload->d = d;
  payload->data = data;
  phy::Frame f;
  f.rate = config_.data_rate;
  f.segments = {{phy::SegmentKind::kHeader, kVpHeaderBytes},
                {phy::SegmentKind::kBody, payload->body_bytes()},
                {phy::SegmentKind::kTrailer, kVpHeaderBytes}};
  f.payload = payload;
  return f;
}

void CmapMac::transmit_next_vp_frame() {
  CMAP_ASSERT(state_ == State::kSendingVp, "vp tx outside kSendingVp");
  CMAP_ASSERT(vp_frame_index_ < vp_frames_.size(), "vp frame overrun");
  radio_.transmit(vp_frames_[vp_frame_index_]);
}

void CmapMac::on_tx_end(const phy::Frame& frame) {
  (void)frame;
  if (state_ != State::kSendingVp) return;  // control frame; nothing to do
  ++vp_frame_index_;
  if (vp_frame_index_ < vp_frames_.size()) {
    transmit_next_vp_frame();
  } else {
    on_vp_fully_sent();
  }
}

void CmapMac::on_vp_fully_sent() {
  vp_frames_.clear();
  if (vp_is_broadcast_) {
    vp_is_broadcast_ = false;
    enter_backoff();
    return;
  }
  state_ = State::kAckWait;
  ack_wait_event_ =
      sim_.in(config_.t_ackwait, [this] { on_ack_wait_expired(); });
}

void CmapMac::on_ack_wait_expired() {
  if (state_ != State::kAckWait) return;
  ++stats_.ack_timeouts;
  // §3.4: CW is NOT updated on a missing ACK — only on reported loss.
  enter_backoff();
}

void CmapMac::enter_backoff() {
  state_ = State::kBackoff;
  const sim::Time wait = backoff_.draw(rng_);
  if (wait <= 0) {
    state_ = State::kIdle;
    try_send();
    return;
  }
  backoff_event_ = sim_.in(wait, [this] {
    state_ = State::kIdle;
    try_send();
  });
}

void CmapMac::arm_retx_timer() {
  if (state_ == State::kRetxWait && retx_event_.pending()) return;
  state_ = State::kRetxWait;
  const sim::Time tau =
      rng_.uniform_int(config_.tau_min(), config_.tau_max());
  retx_event_ = sim_.in(tau, [this] { on_retx_timeout(); });
}

void CmapMac::on_retx_timeout() {
  if (state_ != State::kRetxWait) return;
  ++counters_.retx_timeouts;
  const auto unacked = window_.unacked_in_sequence();
  retx_queue_.assign(unacked.begin(), unacked.end());
  state_ = State::kIdle;
  try_send();
}

void CmapMac::handle_ack(const CmapAckFrame& ack) {
  ++stats_.acks_received;
  for (std::uint32_t seq : window_.on_ack(ack)) {
    unacked_.erase(seq);
  }
  backoff_.on_ack_loss_rate(ack.loss_rate);
  if (state_ == State::kAckWait) {
    ack_wait_event_.cancel();
    enter_backoff();
  } else if (state_ == State::kRetxWait &&
             (window_.can_admit() || !retx_queue_.empty())) {
    retx_event_.cancel();
    state_ = State::kIdle;
    try_send();
  }
}

// -------------------------------------------------------------- receiver --

CmapMac::VpRxContext& CmapMac::context_for(phy::NodeId src,
                                           std::uint32_t vp_seq) {
  const std::uint64_t key = ctx_key(src, vp_seq);
  auto it = rx_contexts_.find(key);
  if (it == rx_contexts_.end()) {
    if (rx_contexts_.size() >= kMaxRxContexts) {
      // Evict the smallest-key finalized context (or, failing that, the
      // smallest-key context outright).  Taking the min over the whole
      // table instead of *.begin() keeps the victim independent of hash
      // order, so eviction behaviour is identical across standard
      // libraries, not just across runs.
      // cmap-lint: allow(unordered-iter) -- min-key scan; the result is
      // invariant under traversal order.
      auto victim = rx_contexts_.begin();
      bool victim_finalized = victim->second.finalized;
      for (auto v = std::next(victim); v != rx_contexts_.end(); ++v) {
        const bool fin = v->second.finalized;
        if (fin != victim_finalized ? fin : v->first < victim->first) {
          victim = v;
          victim_finalized = fin;
        }
      }
      victim->second.finalize_event.cancel();
      rx_contexts_.erase(victim);
    }
    it = rx_contexts_.emplace(key, VpRxContext{}).first;
    it->second.src = src;
    it->second.vp_seq = vp_seq;
  }
  return it->second;
}

void CmapMac::handle_delimiter(const VpDescriptor& d, bool is_trailer,
                               sim::Time vp_start, sim::Time vp_end) {
  if (is_trailer) {
    ++counters_.trailers_heard;
  } else {
    ++counters_.headers_heard;
  }
  ongoing_.note(d, is_trailer ? sim_.now() : vp_end, sim_.now());

  // Record the transmission for loss attribution regardless of audience.
  if (d.src != radio_.id()) {
    foreign_.push_back(ForeignTx{d.src, d.dst, vp_start, vp_end, d.data_rate});
    while (!foreign_.empty() &&
           (foreign_.front().end < sim_.now() - kForeignHorizon ||
            foreign_.size() > kMaxForeignRecords)) {
      foreign_.pop_front();
    }
  }

  if (d.dst != radio_.id()) return;
  VpRxContext& ctx = context_for(d.src, d.vp_seq);
  if (ctx.finalized) return;
  if (!ctx.have_bounds) {
    ++counters_.vps_delim_received;
    ++per_sender_[d.src].counts.vps_delim_received;
  }
  if (!is_trailer && !ctx.have_header) {
    ctx.have_header = true;
    ++counters_.vps_header_received;
    ++per_sender_[d.src].counts.vps_header_received;
  }
  ctx.npackets = d.npackets;
  ctx.vp_start = vp_start;
  ctx.vp_end = vp_end;
  ctx.data_rate = d.data_rate;
  ctx.have_bounds = true;
  const std::uint64_t key = ctx_key(d.src, d.vp_seq);
  if (is_trailer) {
    ctx.finalize_event.cancel();
    finalize_vp(key, /*send_ack=*/true);
  } else if (!ctx.finalize_event.pending()) {
    // If the trailer never arrives, still close the book (no ACK: §3.3 —
    // the receiver ACKs on trailer reception).
    ctx.finalize_event =
        sim_.at(vp_end + config_.vp_finalize_grace,
                [this, key] { finalize_vp(key, /*send_ack=*/false); });
  }
}

void CmapMac::handle_data(const CmapDataFrame& data, double rssi_dbm) {
  if (data.dst != radio_.id() && data.dst != phy::kBroadcastId) return;
  const bool dup = dup_filter_.seen_before(data.src, data.seq);
  if (dup) {
    ++stats_.duplicates;
  } else {
    ++stats_.delivered;
  }
  if (rx_handler_) rx_handler_(data.packet, RxInfo{rssi_dbm, dup});
  if (data.dst != radio_.id()) return;  // broadcast: no ARQ bookkeeping
  VpRxContext& ctx = context_for(data.src, data.vp_seq);
  if (!ctx.finalized) ctx.received[data.index] = true;
}

void CmapMac::finalize_vp(std::uint64_t key, bool send_ack) {
  auto it = rx_contexts_.find(key);
  if (it == rx_contexts_.end() || it->second.finalized) return;
  VpRxContext& ctx = it->second;
  ctx.finalized = true;
  ctx.finalize_event.cancel();
  if (!ctx.have_bounds) return;  // nothing to account against

  CmapAckFrame::VpAck vp;
  vp.vp_seq = ctx.vp_seq;
  vp.npackets = ctx.npackets;
  for (const auto& [index, got] : ctx.received) {
    if (got && index < 64) vp.bitmap |= 1ull << index;
  }
  PerSenderRx& ps = per_sender_[ctx.src];
  ps.recent_vps.push_back(vp);
  while (ps.recent_vps.size() >
         static_cast<std::size_t>(config_.nwindow_vps)) {
    ps.recent_vps.pop_front();
  }

  attribute_losses(ctx);
  const phy::NodeId sender = ctx.src;
  rx_contexts_.erase(it);

  if (send_ack) {
    ack_tx_event_ = sim_.in(kSifs, [this, sender] { send_vp_ack(sender); });
  }
}

void CmapMac::attribute_losses(const VpRxContext& ctx) {
  if (ctx.npackets == 0) return;
  // Reconstruct each data packet's airtime window: evenly spaced across the
  // VP's data region (uniform packet sizes — our workloads' case).
  sim::Time region_begin = ctx.vp_start;
  sim::Time region_end = ctx.vp_end;
  if (config_.mode == PhyMode::kShim) {
    region_begin += phy::frame_airtime(config_.control_rate, kVpHeaderBytes);
    region_end -= phy::frame_airtime(config_.control_rate, kVpHeaderBytes);
  }
  if (region_end <= region_begin) return;
  const double slot = static_cast<double>(region_end - region_begin) /
                      static_cast<double>(ctx.npackets);

  std::vector<phy::NodeId>& concurrent = loss_concurrent_;
  std::vector<phy::WifiRate>& rates = loss_rates_;
  for (std::uint16_t i = 0; i < ctx.npackets; ++i) {
    const auto w0 =
        region_begin + static_cast<sim::Time>(slot * static_cast<double>(i));
    const auto w1 =
        region_begin +
        static_cast<sim::Time>(slot * static_cast<double>(i + 1));
    concurrent.clear();
    rates.clear();
    for (const auto& f : foreign_) {
      if (f.src == ctx.src || f.src == radio_.id()) continue;
      if (f.start < w1 && f.end > w0 &&
          std::find(concurrent.begin(), concurrent.end(), f.src) ==
              concurrent.end()) {
        concurrent.push_back(f.src);
        rates.push_back(f.rate);
      }
    }
    auto got = ctx.received.find(i);
    const bool received = got != ctx.received.end() && got->second;
    tracker_.observe(ctx.src, ctx.data_rate, concurrent, rates, received,
                     sim_.now());
  }
}

void CmapMac::send_vp_ack(phy::NodeId to) {
  if (radio_.transmitting()) return;  // half-duplex: ack lost to our own tx
  auto ack = std::make_shared<CmapAckFrame>();
  ack->src = radio_.id();
  ack->dst = to;
  PerSenderRx& ps = per_sender_[to];
  ack->vps.assign(ps.recent_vps.begin(), ps.recent_vps.end());
  ack->loss_rate = ps.window_loss_rate();
  phy::Frame f;
  f.rate = config_.control_rate;
  f.segments = {{phy::SegmentKind::kWhole, ack->wire_bytes()}};
  f.payload = ack;
  ++stats_.acks_sent;
  radio_.transmit(std::move(f));
}

void CmapMac::handle_ilist(const InterfererListFrame& il) {
  ++counters_.ilists_received;
  defer_table_.expire(sim_.now());
  defer_table_.apply_interferer_list(radio_.id(), il.src, il.entries,
                                     sim_.now());
}

// ---------------------------------------------------------- control plane --

void CmapMac::schedule_ilist() {
  // Jitter desynchronizes neighbours' broadcasts.
  const sim::Time period = config_.ilist_period;
  const sim::Time jitter = rng_.uniform_int(-period / 10, period / 10);
  sim_.in(period + jitter, [this] {
    broadcast_ilist();
    schedule_ilist();
  });
}

void CmapMac::broadcast_ilist() {
  if (state_ == State::kSendingVp || state_ == State::kAckWait) return;
  if (radio_.transmitting()) return;
  const auto entries = tracker_.snapshot(sim_.now());
  if (entries.empty()) return;
  auto il = std::make_shared<InterfererListFrame>();
  il->src = radio_.id();
  il->entries = entries;
  phy::Frame f;
  f.rate = config_.control_rate;
  f.segments = {{phy::SegmentKind::kWhole, il->wire_bytes()}};
  f.payload = il;
  ++counters_.ilists_sent;
  radio_.transmit(std::move(f));
}

// ----------------------------------------------------------- phy callbacks --

void CmapMac::on_header_decoded(const phy::Frame& frame, bool ok) {
  // Integrated mode streaming: the header verdict arrives mid-frame, which
  // is what lets nodes defer to conflicting transmissions in time (§2.1).
  if (!ok || config_.mode != PhyMode::kIntegrated) return;
  const auto* idf =
      dynamic_cast<const IntegratedDataFrame*>(frame.payload.get());
  if (idf == nullptr) return;
  const sim::Time now = sim_.now();
  const std::size_t total =
      2 * kVpHeaderBytes + idf->body_bytes();
  const double hdr_frac =
      static_cast<double>(kVpHeaderBytes) / static_cast<double>(total);
  const sim::Time payload_air = frame.duration - phy::kPlcpDuration;
  const sim::Time hdr_end_offset =
      phy::kPlcpDuration +
      static_cast<sim::Time>(hdr_frac * static_cast<double>(payload_air));
  const sim::Time vp_start = now - hdr_end_offset;
  handle_delimiter(idf->d, /*is_trailer=*/false, vp_start,
                   vp_start + frame.duration);
}

void CmapMac::on_rx_end(const phy::Frame& frame, const phy::RxResult& result) {
  const sim::Time now = sim_.now();
  if (const auto* delim =
          dynamic_cast<const VpDelimFrame*>(frame.payload.get())) {
    if (!result.all_ok()) {
      ++stats_.corrupt_frames;
      return;
    }
    const sim::Time vp_start = now - delim->d.elapsed_through;
    const sim::Time vp_end = now + delim->d.remaining_after;
    handle_delimiter(delim->d, delim->is_trailer, vp_start, vp_end);
    return;
  }
  if (const auto* data =
          dynamic_cast<const CmapDataFrame*>(frame.payload.get())) {
    if (!result.all_ok()) {
      ++stats_.corrupt_frames;
      return;
    }
    handle_data(*data, result.rssi_dbm);
    return;
  }
  if (const auto* idf =
          dynamic_cast<const IntegratedDataFrame*>(frame.payload.get())) {
    const sim::Time vp_start = now - frame.duration;
    // Header was already handled mid-frame (on_header_decoded) if it
    // decoded; the trailer closes the entry and triggers the ACK.
    if (result.segment_ok.size() == 3) {
      if (result.segment_ok[1]) {
        handle_data(idf->data, result.rssi_dbm);
      } else if (idf->data.dst == radio_.id()) {
        ++stats_.corrupt_frames;
      }
      if (result.segment_ok[2]) {
        handle_delimiter(idf->d, /*is_trailer=*/true, vp_start, now);
      }
    }
    return;
  }
  if (const auto* ack =
          dynamic_cast<const CmapAckFrame*>(frame.payload.get())) {
    if (!result.all_ok() || ack->dst != radio_.id()) return;
    handle_ack(*ack);
    return;
  }
  if (const auto* il =
          dynamic_cast<const InterfererListFrame*>(frame.payload.get())) {
    if (!result.all_ok()) return;
    handle_ilist(*il);
    return;
  }
}

void CmapMac::on_salvage(const phy::Frame& frame,
                         const phy::RxResult& result) {
  // Integrated-PHY partial packet recovery: header/trailer segments of a
  // frame we never locked onto (paper Fig. 5).
  const auto* idf =
      dynamic_cast<const IntegratedDataFrame*>(frame.payload.get());
  if (idf == nullptr || result.segment_ok.size() != 3) return;
  const sim::Time now = sim_.now();
  const sim::Time vp_start = now - frame.duration;
  if (result.segment_ok[0]) {
    handle_delimiter(idf->d, /*is_trailer=*/false, vp_start, now);
  }
  if (result.segment_ok[2]) {
    handle_delimiter(idf->d, /*is_trailer=*/true, vp_start, now);
  }
}

}  // namespace cmap::core

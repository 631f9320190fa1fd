#include "core/ongoing_list.h"

namespace cmap::core {

void OngoingList::note(const VpDescriptor& d, sim::Time end_time,
                       sim::Time now) {
  CMAP_ASSERT(!walking_, "note() during an OngoingList walk");
  // A pair already on the ring — expired or not — is updated in place,
  // exactly as the flat-vector representation did.
  for (std::uint32_t idx = head_; idx != kNil; idx = slots_[idx].next) {
    OngoingTx& tx = slots_[idx].tx;
    if (tx.src == d.src && tx.dst == d.dst) {
      tx.end_time = end_time;
      tx.data_rate = d.data_rate;
      if (trace_.wants(trace::Category::kOngoing)) {
        trace_.tracer->record(
            now, trace::OngoingRecord{trace_.self, trace::OngoingOp::kUpdate,
                                      d.src, d.dst, end_time});
      }
      return;
    }
  }
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slots_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Node& n = slots_[idx];
  n.tx = OngoingTx{d.src, d.dst, end_time, d.data_rate};
  n.prev = tail_;
  n.next = kNil;
  if (tail_ != kNil) {
    slots_[tail_].next = idx;
  } else {
    head_ = idx;
  }
  tail_ = idx;
  ++live_count_;
  metrics_.raise(metrics::Counter::kMacOngoingActiveHw, live_count_);
  if (trace_.wants(trace::Category::kOngoing)) {
    trace_.tracer->record(now, trace::OngoingRecord{trace_.self,
                                                    trace::OngoingOp::kNote,
                                                    d.src, d.dst, end_time});
  }
}

void OngoingList::release(std::uint32_t idx, sim::Time now) const {
  Node& n = slots_[idx];
  if (trace_.wants(trace::Category::kOngoing)) {
    trace_.tracer->record(
        now, trace::OngoingRecord{trace_.self, trace::OngoingOp::kExpire,
                                  n.tx.src, n.tx.dst, n.tx.end_time});
  }
  if (n.prev != kNil) {
    slots_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    slots_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
  n.prev = kNil;
  n.next = free_head_;
  free_head_ = idx;
  --live_count_;
}

bool OngoingList::node_busy(phy::NodeId node, sim::Time now) const {
  const WalkGuard guard(walking_);
  bool busy = false;
  std::uint32_t idx = head_;
  while (idx != kNil) {
    Node& n = slots_[idx];
    const std::uint32_t next = n.next;
    if (n.tx.end_time <= now) {
      release(idx, now);
    } else if (n.tx.src == node || n.tx.dst == node) {
      busy = true;
      break;
    }
    idx = next;
  }
  return busy;
}

std::vector<OngoingTx> OngoingList::active(sim::Time now) const {
  std::vector<OngoingTx> out;
  for (std::uint32_t idx = head_; idx != kNil; idx = slots_[idx].next) {
    if (slots_[idx].tx.end_time > now) out.push_back(slots_[idx].tx);
  }
  return out;
}

sim::Time OngoingList::end_of(phy::NodeId src, phy::NodeId dst,
                              sim::Time now) const {
  const WalkGuard guard(walking_);
  sim::Time end = 0;
  std::uint32_t idx = head_;
  while (idx != kNil) {
    Node& n = slots_[idx];
    const std::uint32_t next = n.next;
    if (n.tx.end_time <= now) {
      release(idx, now);
    } else if (n.tx.src == src && n.tx.dst == dst) {
      end = n.tx.end_time;
      break;
    }
    idx = next;
  }
  return end;
}

}  // namespace cmap::core

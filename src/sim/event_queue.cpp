#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "sim/assert.h"

namespace cmap::sim {
namespace {
// Below this size a compaction scan costs more than the stale keys it
// could reclaim are worth.
constexpr std::size_t kCompactFloor = 64;
}  // namespace

EventId EventQueue::schedule_ranked(Time at, EventRank rank, EventFn&& fn) {
  CMAP_ASSERT(at >= current_time_, "event scheduled into the past");
  maybe_compact();
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  heap_.push_back(Key{at, rank, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_.size() > depth_high_water_) depth_high_water_ = heap_.size();
  return EventId(this, slot, seq);
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].fn.reset();
  slots_[slot].seq = kFreeSlot;
  free_slots_.push_back(slot);
}

void EventQueue::maybe_compact() {
  // Amortized-O(1) trigger: only scan once the heap has doubled past its
  // size at the previous scan, and only rebuild when at least half the
  // keys are stale (so a rebuild at least halves the heap). Every pending
  // event holds exactly one occupied slot and one key, so the stale count
  // is the heap size minus the occupied slots — no scan needed to decide.
  // Rebuilding re-heapifies, which is safe because the comparator is a
  // total order: the pop sequence never depends on the heap's layout.
  if (heap_.size() < std::max(compact_watermark_ * 2, kCompactFloor)) return;
  const std::size_t live = slots_.size() - free_slots_.size();
  const std::size_t stale_keys = heap_.size() - live;
  if (stale_keys * 2 >= heap_.size()) {
    std::erase_if(heap_, [this](const Key& k) { return stale(k); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    ++compactions_;
  }
  compact_watermark_ = heap_.size();
}

void EventQueue::drop_stale_head() {
  while (!heap_.empty() && stale(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::run_one() {
  drop_stale_head();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  current_time_ = k.at;
  // Move the callback out before running it: it may schedule events, and
  // growing the pool would relocate the slot under it. Freeing the slot
  // first flips EventId::pending(), so a callback cancelling its own id
  // is a no-op.
  EventFn fn = std::move(slots_[k.slot].fn);
  release(k.slot);
  ++executed_;
  fn();
  return true;
}

Time EventQueue::next_time() {
  drop_stale_head();
  return heap_.empty() ? kTimeForever : heap_.front().at;
}

EventKey EventQueue::next_key() {
  drop_stale_head();
  if (heap_.empty()) return EventKey{kTimeForever, EventRank{}, 0};
  return EventKey{heap_.front().at, heap_.front().rank, heap_.front().seq};
}

bool EventQueue::empty() {
  drop_stale_head();
  return heap_.empty();
}

}  // namespace cmap::sim

// A binary-heap event queue with O(log n) insertion and lazily cancelled
// events. Same-instant ordering is defined by an explicit EventRank rather
// than raw insertion order, so the serial executive and the partitioned
// (PDES) executive sort identical keys and produce identical execution
// orders — the root of the byte-identity contract (docs/pdes.md). Within
// one rank, events still execute in insertion order (FIFO), which keeps
// protocol state machines deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace cmap::sim {

/// Deterministic same-tick ordering key. At one instant, events execute by
/// ascending (cls, a, b), then FIFO. The three classes:
///   0 (global)   — dynamics/sequencer events (mobility ticks, channel
///                  epochs). Under PDES these run alone at a barrier, so
///                  the serial queue must also sort them first.
///   2 (local)    — MAC timers, signal ends, CCA wakes, rx completions.
///                  Scheduled and executed within one node's partition,
///                  where FIFO insertion order is itself deterministic.
///   3 (delivery) — a frame arriving at a receiver; keyed (frame id,
///                  receiver id), both intrinsic to the delivery, so the
///                  order is identical whether the event was scheduled
///                  locally or drained from a cross-partition mailbox.
/// Deliveries sort AFTER local events at the same tick on purpose: a
/// signal-end (or finish_rx) at T must run before a new signal starting
/// at exactly T, or back-to-back frame trains would overlap for zero
/// nanoseconds and the receiver — still nominally in Rx — would never
/// evaluate the new preamble. The legacy insertion-order queue got this
/// right by accident (end events are inserted a frame-duration earlier);
/// the rank encodes it explicitly.
struct EventRank {
  std::uint8_t cls = 2;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

inline constexpr EventRank kGlobalRank{0, 0, 0};
constexpr EventRank delivery_rank(std::uint64_t frame_id,
                                  std::uint64_t receiver) {
  return EventRank{3, frame_id, receiver};
}

/// The comparable head-of-queue key, seq tie-breaker included: the full
/// order the queue pops by. Seqs are per queue, so keys of different
/// queues compare meaningfully only on (at, rank). Profilers peek at it
/// to classify the next event before running it.
struct EventKey {
  Time at = 0;
  EventRank rank;
  std::uint64_t seq = 0;

  friend bool operator<(const EventKey& x, const EventKey& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.rank.cls != y.rank.cls) return x.rank.cls < y.rank.cls;
    if (x.rank.a != y.rank.a) return x.rank.a < y.rank.a;
    if (x.rank.b != y.rank.b) return x.rank.b < y.rank.b;
    return x.seq < y.seq;
  }
};

/// A scheduled event's callback: a move-only `void()` callable stored
/// inline. There is no heap fallback — a capture larger than kCapacity is
/// a compile error — so scheduling an event never allocates for its
/// callable. kCapacity fits the largest capture in the simulator.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 48;

  EventFn() = default;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // implicit, so call sites pass lambdas directly
    static_assert(sizeof(D) <= kCapacity,
                  "event capture exceeds EventFn::kCapacity");
    static_assert(alignof(D) <= alignof(void*),
                  "event capture is over-aligned for EventFn");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event capture must be nothrow-movable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }
  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  /// Destroy the held callable (and whatever it captured), leaving *this
  /// empty.
  void reset() {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src);  // move-construct, destroy src
    void (*destroy)(void* self);
  };
  template <class D>
  static constexpr Ops kOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) { static_cast<D*>(self)->~D(); }};

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kCapacity];
};

class EventQueue;

/// Handle to a scheduled event: its queue, the pool slot holding its
/// callback and the event's seq, which is the slot's generation tag. Once
/// the event runs or is cancelled the slot is freed, and a later event
/// reusing it carries a different (unique) seq, so a stale id can neither
/// cancel nor report the new occupant. Copyable; cancelling any copy
/// cancels the event. A default-constructed EventId refers to no event. An
/// id must not be used after its queue is destroyed.
class EventId {
 public:
  EventId() = default;

  /// True if the event is still pending (scheduled, not cancelled, not run).
  bool pending() const;

  /// Cancel the event if still pending. Safe to call repeatedly, on
  /// already-run events, and on default-constructed ids.
  void cancel();

 private:
  friend class EventQueue;
  EventId(EventQueue* queue, std::uint32_t slot, std::uint64_t seq)
      : queue_(queue), slot_(slot), seq_(seq) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

/// Time-ordered queue of callbacks. The heap holds trivially copyable keys;
/// callbacks live in a pool of slots recycled through a free list, so a
/// schedule/run cycle allocates nothing once the pool and heap have grown
/// to the run's peak depth. Not thread-safe: each queue is driven by one
/// executive at a time (the whole simulation for the serial path, one
/// partition window for PDES). Not copyable or movable: EventIds point at
/// it.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at` with the default local rank.
  /// `at` must not precede the time of the event currently being executed
  /// (no scheduling into the past).
  /// Callbacks are taken by rvalue reference so a callable travels from
  /// the caller's temporary into its slot with a single relocation.
  EventId schedule(Time at, EventFn&& fn) {
    return schedule_ranked(at, EventRank{}, std::move(fn));
  }

  /// Schedule with an explicit same-tick ordering rank (see EventRank).
  EventId schedule_ranked(Time at, EventRank rank, EventFn&& fn);

  /// Pop and run the earliest pending event; returns false if none remain.
  bool run_one();

  /// Time of the earliest pending event, or kTimeForever when empty.
  Time next_time();

  /// Full ordering key of the earliest pending event; at == kTimeForever
  /// when empty.
  EventKey next_key();

  bool empty();

  /// Number of events executed so far (for micro-benchmarks and tests).
  std::uint64_t executed() const { return executed_; }

  /// Largest heap size observed (live + not-yet-compacted stale keys), for
  /// the metrics execution section.
  std::size_t depth_high_water() const { return depth_high_water_; }

  /// Number of stale-key compaction rebuilds performed.
  std::uint64_t compactions() const { return compactions_; }

  /// Keys currently held, including not-yet-compacted stale ones (those of
  /// cancelled events; observability for the compaction regression test).
  std::size_t heap_size() const { return heap_.size(); }

  /// Time of the event currently executing (or last executed).
  Time current_time() const { return current_time_; }

  /// Advance the clock without running events, as Simulator::run_until
  /// does when the next event lies beyond its horizon. Never moves
  /// backwards.
  void advance_to(Time t) {
    if (t > current_time_) current_time_ = t;
  }

 private:
  friend class EventId;

  // Seq of a free slot. Real seqs count up from 0 and never reach it.
  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};

  struct Key {
    Time at = 0;
    EventRank rank;
    std::uint64_t seq = 0;   // tie-breaker: FIFO among same-(time, rank)
    std::uint32_t slot = 0;  // pool slot holding the callback
  };
  struct Slot {
    EventFn fn;
    std::uint64_t seq = kFreeSlot;  // seq of the occupant, or kFreeSlot
  };
  // Max-heap comparator for "later", so the heap root is the earliest
  // key. (at, cls, a, b, seq) is a total order — seq is unique — so the
  // pop *sequence* is independent of heap layout, which is what makes
  // compaction (a re-heapify) determinism-safe.
  struct Later {
    bool operator()(const Key& x, const Key& y) const {
      if (x.at != y.at) return x.at > y.at;
      if (x.rank.cls != y.rank.cls) return x.rank.cls > y.rank.cls;
      if (x.rank.a != y.rank.a) return x.rank.a > y.rank.a;
      if (x.rank.b != y.rank.b) return x.rank.b > y.rank.b;
      return x.seq > y.seq;
    }
  };

  bool pending(std::uint32_t slot, std::uint64_t seq) const {
    return slots_[slot].seq == seq;
  }
  // A key is stale once its event ran or was cancelled: the slot was freed
  // (and possibly reused by a later event with another seq).
  bool stale(const Key& k) const { return !pending(k.slot, k.seq); }
  void release(std::uint32_t slot);
  void drop_stale_head();
  void maybe_compact();

  std::vector<Key> heap_;  // std::push_heap/pop_heap managed
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // LIFO free list into slots_
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t depth_high_water_ = 0;
  std::uint64_t compactions_ = 0;
  Time current_time_ = 0;
  // Stale-key compaction (see maybe_compact): scan when the heap has
  // doubled past the size it had after the last scan, so the amortized
  // cost per schedule() is O(1) and a cancellation-heavy workload
  // (defer-TTL churn) cannot retain stale keys unboundedly.
  std::size_t compact_watermark_ = 0;
};

inline bool EventId::pending() const {
  return queue_ != nullptr && queue_->pending(slot_, seq_);
}

inline void EventId::cancel() {
  if (pending()) queue_->release(slot_);
}

}  // namespace cmap::sim

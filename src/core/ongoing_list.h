// The ongoing list (§3.2): every CMAP node's view of transmissions
// currently in the air, built from overheard virtual-packet headers and
// trailers. Entries carry the announced end time and expire on their own.
//
// Consulted on every transmit attempt, so live entries form an intrusive
// doubly-linked ring threaded through a recycled slot pool: the decision
// path iterates via for_each_active() with zero allocations, and entries
// whose end time has passed are unlinked back onto the free list as reads
// walk over them (lazy expiry — node_busy/end_of never scan dead entries
// more than once). active() is an allocating snapshot for introspection;
// the test-only send-decision oracle reads the list through it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/wire.h"
#include "metrics/metrics.h"
#include "phy/types.h"
#include "sim/assert.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace cmap::core {

struct OngoingTx {
  phy::NodeId src = 0;
  phy::NodeId dst = 0;
  sim::Time end_time = 0;
  phy::WifiRate data_rate = phy::WifiRate::k6Mbps;
};

class OngoingList {
 public:
  /// Stream entry transitions (note / in-place update / expiry) as
  /// kOngoing records. `self` is the owning node's id.
  void set_tracer(trace::Tracer* tracer, phy::NodeId self) {
    trace_.bind(tracer, self);
  }

  /// Track the active-entry high-water mark into `registry` (kMac domain).
  void set_metrics(metrics::Registry* registry) {
    metrics_.bind(registry, metrics::Domain::kMac);
  }

  /// Record an overheard/salvaged header or trailer announcing that the
  /// transmission d.src -> d.dst lasts until `end_time` (trailers pass the
  /// current time, which closes the entry). Re-noting a known pair updates
  /// it in place; new pairs reuse a free slot before growing the pool.
  /// `now` is only consumed by tracing (the transition's timestamp).
  void note(const VpDescriptor& d, sim::Time end_time, sim::Time now);

  /// Untraced convenience (tests): stamps the transition at end_time,
  /// which is only observable when a tracer is bound.
  void note(const VpDescriptor& d, sim::Time end_time) {
    note(d, end_time, end_time);
  }

  /// True if `node` appears as source or destination of a live entry —
  /// the "v is neither sending nor receiving" check. An entry is live
  /// strictly before its end time: at now == end_time it no longer counts
  /// (and is reclaimed by this read).
  bool node_busy(phy::NodeId node, sim::Time now) const;

  /// End time of the live entry (src -> dst), or 0 if none. Same exclusive
  /// end-time boundary and lazy reclamation as node_busy.
  sim::Time end_of(phy::NodeId src, phy::NodeId dst, sim::Time now) const;

  /// Visit every transmission live at `now` (allocation-free; entries in
  /// note order). Expired entries encountered on the walk are reclaimed.
  /// `fn` takes a const OngoingTx&. `fn` must NOT read or mutate this
  /// list (the walk caches its next link before reclaiming, so a nested
  /// read that reclaims the cached node would double-release it, and a
  /// nested note() could reallocate the slot pool under the walk) — both
  /// are asserted, here and in note()/node_busy()/end_of().
  template <typename Fn>
  void for_each_active(sim::Time now, Fn&& fn) const {
    const WalkGuard guard(walking_);
    std::uint32_t idx = head_;
    while (idx != kNil) {
      Node& n = slots_[idx];
      const std::uint32_t next = n.next;
      if (n.tx.end_time <= now) {
        release(idx, now);
      } else {
        const OngoingTx& tx = n.tx;
        fn(tx);
      }
      idx = next;
    }
  }

  /// Live transmissions at `now` in note order, as an allocated snapshot
  /// (introspection); never reclaims.
  std::vector<OngoingTx> active(sim::Time now) const;

  /// Entries currently linked, including expired ones no read has touched
  /// yet (matching the pre-ring representation's accounting).
  std::size_t size() const { return live_count_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    OngoingTx tx;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;  // doubles as the free-list link
  };

  /// Reclaiming walks (for_each_active, node_busy, end_of) cache
  /// link fields, so they must not nest; this flags the violation loudly
  /// instead of corrupting the ring.
  struct WalkGuard {
    explicit WalkGuard(bool& walking) : walking_(walking) {
      CMAP_ASSERT(!walking_, "reentrant OngoingList walk (see for_each_active)");
      walking_ = true;
    }
    ~WalkGuard() { walking_ = false; }
    bool& walking_;
  };

  void release(std::uint32_t idx, sim::Time now) const;

  trace::TraceHook trace_;
  metrics::MetricsHook metrics_;
  // Mutable: reads are logically const but reclaim expired entries they
  // walk over. One CmapMac owns the list on one simulation thread.
  mutable std::vector<Node> slots_;
  mutable std::uint32_t head_ = kNil;
  mutable std::uint32_t tail_ = kNil;
  mutable std::uint32_t free_head_ = kNil;
  mutable std::size_t live_count_ = 0;
  mutable bool walking_ = false;
};

}  // namespace cmap::core

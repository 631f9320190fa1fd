// Conservative parallel discrete-event execution inside one run (the
// ROADMAP "intra-run PDES" item; protocol derivation in docs/pdes.md).
//
// The run's nodes are partitioned by link component (phy/partition.h);
// every partition owns a Simulator whose queue holds that partition's
// node events, and one extra *global sequencer* Simulator holds the
// dynamics events (mobility ticks, channel epochs) that mutate shared
// medium state. Execution proceeds in rounds:
//
//   1. S = earliest pending time across all queues. If the global
//      sequencer is due at S, its events run alone (a barrier: they touch
//      shared state), then min-delays are refreshed (links may have
//      changed).
//   2. Otherwise every partition g gets a conservative window
//      W_g = min(next_global, min_h(next_h + sp(h -> g)))
//      and executes its events with t < W_g, in parallel across partitions.
//      sp is the SHORTEST-PATH closure of the pairwise minimum link
//      delays — not the direct edge. The closure matters: a partition with
//      no pending events imposes no next_h term of its own, but it can still
//      relay influence (a message posted to it this round wakes a node
//      whose response arrives elsewhere), and a partition's own output can
//      reflect back at it (g -> h -> g). Multi-hop paths and self-cycles
//      in the closure bound both: any chain of deliveries rooted at some
//      pending event in h reaches g no earlier than next_h + sp(h, g),
//      which is >= W_g by construction. Per-edge lookahead is the minimum
//      link delay alone — a signal's influence at a receiver starts
//      at its arrival tick (CCA is event-driven), so frame airtime adds
//      nothing sound; see docs/pdes.md.
//   3. Cross-partition deliveries were posted as timestamped mailbox
//      messages; a barrier drains them into the target queues. Their
//      arrival times are provably >= the target's window end, so no
//      message is ever late (the conservative invariant).
//
// Precondition: every cross-partition lookahead is >= 1 ns, which
// phy::propagation_delay_ns guarantees by flooring every link delay at
// 1 ns; set_min_delays aborts on anything smaller. It is what
// makes every round progress (the partition holding the earliest event
// always has a non-empty window) and what lets each partition queue keep
// its own seq counter: seqs from different queues are never compared.
//
// Determinism: same-tick ordering is the (rank, seq) total order the
// serial queue also sorts by, and same-tick events in *different*
// partitions commute (their mutual lookahead is >= 1 ns, so neither's
// effects can reach the other at the same instant; between barriers they
// touch disjoint node state and only read shared medium state). Sweep
// reports are therefore byte-identical to the serial oracle at any
// partition and thread count — gated by tests/scenario/test_pdes_golden.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/parallel.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace cmap::sim {

/// The RunConfig knob (testbed::RunConfig::pdes), validated by the World
/// constructor: a value below 1 in either field aborts naming the field.
struct PdesOptions {
  /// Spatial partitions; 1 selects the single-queue serial path — the
  /// reference oracle.
  int partitions = 1;
  /// Threads executing partition windows, the driving thread included
  /// (4 = 3 workers + the driver; capped at `partitions`). When two or
  /// more partitions have work in a round, partition p runs on thread
  /// p % threads (the driver is thread 0) unless that thread is late and
  /// the driver takes it over; a lone busy window runs on the driver.
  /// 1 executes windows inline on the driving thread
  /// (deterministic without any thread machinery; what golden tests use).
  /// Results are identical at any value.
  int threads = 1;

  bool operator==(const PdesOptions&) const = default;
};

/// The engine's execution profile, feeding the metrics snapshot's
/// *execution* section (metrics/metrics.h) — all of it is a property of
/// how the run was scheduled, never of the simulation, so nothing here is
/// covered by the byte-identity contract. Structural counters (barriers,
/// windows, histogram) accumulate unconditionally; the wall-clock fields
/// (busy_ns, parallel_ns) stay zero unless enable_profiling() was called,
/// so the default path never reads a clock.
struct PdesExecStats {
  std::uint64_t global_barriers = 0;  // rounds spent running global events
  /// Histogram of conservative window spans (window_end - partition's
  /// next event): bin i counts spans with floor(log2(ns)) == i (bin 0
  /// takes span 1 ns).
  std::array<std::uint64_t, 64> window_log2{};
  /// Wall time each partition's events were executing.
  std::vector<std::uint64_t> busy_ns;
  /// Total wall time partition windows were live (the parallel phase).
  /// A partition's barrier wait is parallel_ns minus its busy_ns.
  std::uint64_t parallel_ns = 0;
};

class PdesEngine {
 public:
  /// `global` is the sequencer Simulator shared state mutators (dynamics)
  /// schedule into; it must outlive the engine.
  PdesEngine(Simulator& global, int partitions, int threads);

  int partitions() const { return static_cast<int>(parts_.size()); }
  Simulator& partition_sim(int p) { return *parts_[static_cast<size_t>(p)]; }
  Simulator& global_sim() { return global_; }

  /// Install the full partition-to-partition minimum-delay matrix
  /// (row-major, partitions^2 entries, ns; entry [from][to] bounds every
  /// signal from a node of `from` to a node of `to` from below;
  /// kTimeForever means no signal can pass). The diagonal is ignored. An
  /// off-diagonal entry below 1 ns aborts, naming the entry: the engine
  /// needs positive lookahead between every pair of partitions.
  void set_min_delays(const std::vector<Time>& matrix);

  /// Called after each global-event barrier so the owner can refresh the
  /// delay matrix when links changed.
  void set_topology_refresh(std::function<void()> fn) {
    topology_refresh_ = std::move(fn);
  }

  /// Route one delivery event (the only cross-partition interaction).
  /// Within the source partition the event is scheduled directly (the
  /// calling thread is the one executing that partition's window); into
  /// any other partition it is posted as a timestamped mailbox message
  /// drained at the next barrier, or on entry to run_until when posted
  /// between runs. Rank (frame_id, receiver) makes the final ordering
  /// independent of the route taken.
  void schedule_delivery(int src_partition, int dst_partition, Time at,
                         std::uint64_t frame_id, std::uint64_t receiver,
                         EventFn fn);

  /// Drive every queue to `until` (events at exactly `until` included,
  /// matching Simulator::run_until), leaving all clocks at `until`.
  /// Aborts unless set_min_delays installed a matrix first.
  void run_until(Time until);

  /// Observability for tests and bench_pdes.
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t messages() const;

  /// Switch on wall-clock stall attribution (per-partition busy time and
  /// the parallel-phase span). Off by default: the conservative loop then
  /// never touches a clock.
  void enable_profiling() { profiling_ = true; }
  const PdesExecStats& exec_stats() const { return stats_; }
  /// Lifetime cross-partition messages addressed to `partition`.
  std::uint64_t mailbox_posted(int partition) const;

 private:
  struct Message {
    Time at = 0;
    std::uint64_t frame_id = 0;
    std::uint64_t receiver = 0;
    EventFn fn;
  };
  struct Mailbox {
    mutable std::mutex mutex;
    std::vector<Message> msgs;
    std::uint64_t posted = 0;  // lifetime total, for observability
    // Messages in `msgs`; lets a drain skip the lock when there are none.
    std::atomic<std::size_t> pending{0};
    // Drain-side buffer, touched only by the driving thread between
    // rounds; swapped with `msgs` so neither loses its capacity.
    std::vector<Message> draining;
  };

  void run_partition(std::size_t p, Time window_end);
  void drain_mailboxes();

  Simulator& global_;
  std::vector<std::unique_ptr<Simulator>> parts_;
  // Shortest-path closure of the partition delay graph (row-major
  // partitions^2; empty until set_min_delays). closure_[h][g] = earliest
  // any causal chain rooted in h can influence g, over any number of
  // intermediate partitions; the diagonal is the minimum cycle through the
  // partition (self-influence via reflection), kTimeForever when
  // unreachable.
  std::vector<Time> closure_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::function<void()> topology_refresh_;
  WorkerCrew crew_;
  std::uint64_t rounds_ = 0;
  bool profiling_ = false;
  PdesExecStats stats_;
};

}  // namespace cmap::sim

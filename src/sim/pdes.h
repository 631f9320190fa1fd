// Intra-run parallel execution options (docs/pdes.md).
//
// A run under PDES plans its live nodes by link component
// (phy/partition.h): no row link joins two partitions, so no delivery
// crosses one, and testbed::World runs every partition's Simulator to the
// horizon side by side (sim::parallel_for), one batch per run() call.
// Same-tick events keep the (rank, seq) order the serial queue sorts by
// (event_queue.h), and partitions touch disjoint node state, so reports
// are byte-identical to the serial run at any partition and thread count
// (tests/scenario/test_pdes_golden.cpp).
#pragma once

namespace cmap::sim {

/// The RunConfig knob (testbed::RunConfig::pdes), validated by the World
/// constructor: a value below 1 in either field aborts naming the field.
struct PdesOptions {
  /// Partitions; 1 selects the single-queue serial path. A world with
  /// dynamics always runs serially (moves and channel epochs can join
  /// components).
  int partitions = 1;
  /// Threads running partitions, the calling thread included (capped at
  /// the partitions with work). 1 runs them inline in partition order.
  /// Results are identical at any value.
  int threads = 1;

  bool operator==(const PdesOptions&) const = default;
};

}  // namespace cmap::sim

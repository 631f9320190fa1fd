// Partitioning for intra-run PDES (docs/pdes.md): assigns the live nodes
// of a run to P partitions such that no row link joins two partitions.
//
// Only a row link (phy/medium.h) carries a delivery, so the plan groups
// the live nodes into link components: nodes joined by a chain of row
// links. Whole components are packed onto the least-loaded partition,
// largest first. No delivery then crosses a partition, and each
// partition's simulator can run to the horizon on its own. A run that is
// one component (a dense floor) lands on one partition and runs as
// serially as it would without a plan. Membership is fixed for the run;
// Medium::attach aborts on a row link between two partitions.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/types.h"
#include "sim/time.h"

namespace cmap::phy {

/// A live node as the plan sees it.
struct LiveNode {
  NodeId id = 0;
  Position position;
};

/// A row link between two live nodes, as indices into the live list:
/// `from`'s row holds `to`.
struct LiveLink {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

struct PartitionPlan {
  int count = 1;
  std::vector<int> part_of_node;  // NodeId -> partition index, -1 unplanned

  int partition_of(NodeId id) const {
    return part_of_node[static_cast<std::size_t>(id)];
  }
};

/// Signal flight time over `meters`, floored at 1 ns: the delay of every
/// medium link. The floor once kept a PDES lookahead positive; it stays
/// because removing it would move the arrival ticks of co-located nodes,
/// and with them report digests.
sim::Time propagation_delay_ns(double meters);

/// Plan `partitions` (at least 1; partitions may stay empty) over `nodes`,
/// whose row links are `links`: every link falls within one partition.
/// The plan depends on the node set, its positions and its links, not on
/// the order they are listed in.
PartitionPlan make_partition_plan(std::span<const LiveNode> nodes,
                                  std::span<const LiveLink> links,
                                  int partitions);

}  // namespace cmap::phy

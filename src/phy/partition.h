// Partitioning for intra-run PDES (sim/pdes.h, docs/pdes.md): assigns the
// live nodes of a run to P partitions, and derives the conservative
// lookahead matrix — the minimum delay of any link that crosses from one
// partition to another — that bounds how far one partition may run ahead
// of another.
//
// Only a row link (phy/medium.h) carries a delivery, so the plan groups
// the live nodes into link components: nodes joined by a chain of row
// links. Whole components are packed onto the least-loaded partition,
// largest first, so a run made of far-apart clusters crosses no partition
// at all. A component larger than the fair share ceil(live / P) is cut
// into (x, y, id) strips first, so a dense floor (one component) still
// splits into contiguous strips. Membership is fixed for the run (each
// node's components are constructed against its partition's Simulator);
// mobility and channel epochs only change the rows, and with them the
// lookahead, which the World recomputes whenever the rows change.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/types.h"
#include "sim/time.h"

namespace cmap::phy {

class Medium;

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
  /// Put `id` on the partition holding the fewest planned nodes (the
  /// lowest index on a tie) unless the plan covers it already: the place
  /// of a node added after the plan was made.
  void place(NodeId id);
};

/// Signal flight time over `meters`, floored at 1 ns: the delay of every
/// medium link. The floor is what keeps the PDES lookahead (the smallest
/// cross-partition link delay) positive, as the engine requires; see the
/// .cpp comment.
sim::Time propagation_delay_ns(double meters);

/// Plan `partitions` (at least 1; partitions may stay empty) over `nodes`,
/// whose row links are `links`. Every link falls within one partition
/// unless its component was cut for being larger than ceil(nodes / P).
/// The plan depends on the node set, its positions and its links, not on
/// the order they are listed in.
PartitionPlan make_partition_plan(std::span<const LiveNode> nodes,
                                  std::span<const LiveLink> links,
                                  int partitions);

/// The row-major count x count lookahead matrix over `medium`'s attached
/// radios, each in its `plan` partition: entry [from][to] is the smallest
/// delay of any row link from a radio of `from` to a radio of `to`, or
/// sim::kTimeForever when there is none. Row delays are >= 1 ns (the
/// propagation_delay_ns floor), which is the positive lookahead
/// sim::PdesEngine::set_min_delays requires; the diagonal is 0 and unused.
std::vector<sim::Time> min_row_delays(const Medium& medium,
                                      const PartitionPlan& plan);

}  // namespace cmap::phy

// Spatial partitioning for intra-run PDES (sim/pdes.h, docs/pdes.md):
// assigns every testbed node to one of P partitions and derives the
// conservative lookahead matrix — the minimum cross-partition propagation
// delay — that bounds how far one partition may run ahead of another.
//
// The assignment sorts nodes by (x, y, id) and cuts the order into P
// near-equal contiguous strips: deterministic for a given node set, and
// geometrically coherent enough that most traffic stays intra-partition.
// Membership is fixed for the run (each node's components are constructed
// against its partition's Simulator); mobility only changes the *delays*,
// which the World recomputes after every global move barrier.
#pragma once

#include <vector>

#include "phy/types.h"
#include "sim/time.h"

namespace cmap::phy {

struct PartitionPlan {
  int count = 1;
  std::vector<int> part_of_node;  // NodeId -> partition index

  int partition_of(NodeId id) const {
    return part_of_node[static_cast<std::size_t>(id)];
  }
};

/// Signal flight time over `meters`, floored at 1 ns, with the exact
/// truncation the medium's link delays use — the PDES lookahead must
/// lower-bound those delays, so the two computations share this one
/// function (the floor is what keeps cross-partition lookahead positive,
/// as the PDES engine requires; see the .cpp comment).
sim::Time propagation_delay_ns(double meters);

/// Partition `positions` (indexed by NodeId, all testbed nodes) into
/// `partitions` strips. `partitions` is clamped to [1, node count].
PartitionPlan make_partition_plan(const std::vector<Position>& positions,
                                  int partitions);

/// The row-major count x count lookahead matrix: entry [from][to] is the
/// minimum propagation delay over all (node of `from`, node of `to`)
/// pairs, or sim::kTimeForever when either side is empty. `parts` and
/// `positions` are parallel arrays describing the *live* nodes (the
/// attached radios — culled testbed nodes impose no bound). Off-diagonal
/// entries are always >= 1 ns (the propagation_delay_ns floor), which is
/// the positive lookahead sim::PdesEngine::set_min_delays requires; the
/// diagonal is 0 and unused.
std::vector<sim::Time> min_cross_delays(const std::vector<int>& parts,
                                        const std::vector<Position>& positions,
                                        int count);

}  // namespace cmap::phy

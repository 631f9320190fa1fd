#include "phy/partition.h"

#include <algorithm>
#include <numeric>

#include "sim/assert.h"

namespace cmap::phy {
namespace {
constexpr double kSpeedOfLight = 2.99792458e8;
}  // namespace

sim::Time propagation_delay_ns(double meters) {
  // Floored at 1 ns: two distinct radios are never truly co-located, and a
  // strictly positive flight time between every pair keeps the PDES
  // cross-partition lookahead positive — the engine's precondition — no
  // matter how close mobility drives two nodes (under 0.3 m the raw flight
  // time truncates to 0).
  return std::max<sim::Time>(
      1, static_cast<sim::Time>(meters / kSpeedOfLight * 1e9));
}

PartitionPlan make_partition_plan(const std::vector<Position>& positions,
                                  int partitions) {
  const auto n = positions.size();
  PartitionPlan plan;
  plan.count = std::clamp(partitions, 1, static_cast<int>(std::max<std::size_t>(n, 1)));
  plan.part_of_node.assign(n, 0);
  if (plan.count <= 1) return plan;

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const Position& pa = positions[a];
    const Position& pb = positions[b];
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return a < b;
  });
  // i-th of n sorted nodes goes to strip floor(i * count / n): sizes
  // differ by at most one, and the mapping is a pure function of (node
  // set, count).
  for (std::size_t i = 0; i < n; ++i) {
    plan.part_of_node[order[i]] =
        static_cast<int>(i * static_cast<std::size_t>(plan.count) / n);
  }
  return plan;
}

std::vector<sim::Time> min_cross_delays(const std::vector<int>& parts,
                                        const std::vector<Position>& positions,
                                        int count) {
  CMAP_ASSERT(parts.size() == positions.size(),
              "parallel arrays of live nodes");
  const auto c = static_cast<std::size_t>(count);
  std::vector<double> min_dist(c * c, -1.0);  // -1 = no pair yet
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      const int a = parts[i];
      const int b = parts[j];
      if (a == b) continue;
      const double d = distance(positions[i], positions[j]);
      double& ab = min_dist[static_cast<std::size_t>(a) * c +
                            static_cast<std::size_t>(b)];
      if (ab < 0.0 || d < ab) ab = d;
      double& ba = min_dist[static_cast<std::size_t>(b) * c +
                            static_cast<std::size_t>(a)];
      if (ba < 0.0 || d < ba) ba = d;
    }
  }
  std::vector<sim::Time> delays(c * c, 0);
  for (std::size_t k = 0; k < c * c; ++k) {
    if (k / c == k % c) continue;  // diagonal: unused by the engine
    delays[k] =
        min_dist[k] < 0.0 ? sim::kTimeForever : propagation_delay_ns(min_dist[k]);
  }
  return delays;
}

}  // namespace cmap::phy

#include "phy/partition.h"

#include <algorithm>
#include <numeric>

namespace cmap::phy {
namespace {
constexpr double kSpeedOfLight = 2.99792458e8;

// Union-find root with path halving.
std::uint32_t root_of(std::vector<std::uint32_t>& parent, std::uint32_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}
}  // namespace

sim::Time propagation_delay_ns(double meters) {
  // Floored at 1 ns: under 0.3 m the raw flight time truncates to 0, and
  // two distinct radios are never truly co-located. Kept for the digests
  // (phy/partition.h).
  return std::max<sim::Time>(
      1, static_cast<sim::Time>(meters / kSpeedOfLight * 1e9));
}

PartitionPlan make_partition_plan(std::span<const LiveNode> nodes,
                                  std::span<const LiveLink> links,
                                  int partitions) {
  PartitionPlan plan;
  plan.count = std::max(partitions, 1);
  NodeId max_id = 0;
  for (const LiveNode& n : nodes) max_id = std::max(max_id, n.id);
  plan.part_of_node.assign(nodes.empty() ? 0 : max_id + std::size_t{1}, -1);
  const auto n = static_cast<std::uint32_t>(nodes.size());
  if (n == 0) return plan;

  // Link components.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  for (const LiveLink& l : links) {
    const std::uint32_t a = root_of(parent, l.from);
    const std::uint32_t b = root_of(parent, l.to);
    parent[std::max(a, b)] = std::min(a, b);
  }
  std::vector<std::vector<std::uint32_t>> components;
  std::vector<std::uint32_t> component_of(n, n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = root_of(parent, i);
    if (component_of[r] == n) {
      component_of[r] = static_cast<std::uint32_t>(components.size());
      components.emplace_back();
    }
    components[component_of[r]].push_back(i);
  }

  // Largest first; among equal sizes the component whose first node in
  // (x, y, id) order comes first, so the packing is a function of the
  // node set.
  const auto by_xy_id = [&nodes](std::uint32_t a, std::uint32_t b) {
    const Position& pa = nodes[a].position;
    const Position& pb = nodes[b].position;
    if (pa.x != pb.x) return pa.x < pb.x;
    if (pa.y != pb.y) return pa.y < pb.y;
    return nodes[a].id < nodes[b].id;
  };
  for (std::vector<std::uint32_t>& c : components) {
    std::sort(c.begin(), c.end(), by_xy_id);
  }
  std::sort(components.begin(), components.end(),
            [&by_xy_id](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return by_xy_id(a.front(), b.front());
            });
  std::vector<std::size_t> load(static_cast<std::size_t>(plan.count), 0);
  for (const std::vector<std::uint32_t>& c : components) {
    const auto p = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    load[p] += c.size();
    for (const std::uint32_t i : c) {
      plan.part_of_node[nodes[i].id] = static_cast<int>(p);
    }
  }
  return plan;
}

}  // namespace cmap::phy

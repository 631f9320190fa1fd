// A sparse building and a flow set of far-apart clusters for the PDES
// tests: each cluster is its own link component, so a 4-partition plan
// (phy/partition.h) spreads the clusters over every partition and a
// partitioned run really runs side by side. Shared by the testbed and
// trace suites.
#pragma once

#include <set>
#include <vector>

#include "testbed/experiment.h"
#include "testbed/testbed.h"

namespace cmap::testbed::pdes_test {

// An 800-node building at the paper's floor density (280 x 160 m) with
// metro_10k's medium: a node's rows reach a few dozen metres, so clusters
// a hundred metres apart share no row link.
inline const Testbed& sparse_building() {
  static const Testbed tb([] {
    TestbedConfig cfg;
    cfg.num_nodes = 800;
    cfg.width_m = 280.0;
    cfg.height_m = 160.0;
    cfg.medium.delivery_floor_dbm = -94.0;
    cfg.medium.cull_guard_sigmas = 3.0;
    cfg.measurement.sparse_guard_sigmas = 3.0;
    return cfg;
  }());
  return tb;
}

inline phy::NodeId nearest_node(const Testbed& tb, phy::Position at,
                                const std::set<phy::NodeId>& taken) {
  phy::NodeId best = 0;
  double best_d = 1e300;
  for (int i = 0; i < tb.size(); ++i) {
    const auto id = static_cast<phy::NodeId>(i);
    const double d = phy::distance(tb.position(id), at);
    if (!taken.count(id) && d < best_d) {
      best = id;
      best_d = d;
    }
  }
  return best;
}

// Two flows per cluster around five anchors (the corners and the centre),
// each from a node near the anchor to its best-PRR neighbour. Every node
// appears in one flow only.
inline std::vector<Flow> cluster_flows(const Testbed& tb) {
  std::vector<Flow> flows;
  std::set<phy::NodeId> taken;
  for (const phy::Position anchor : {phy::Position{25, 25}, {255, 25},
                                     {25, 135}, {255, 135}, {140, 80}}) {
    for (int k = 0; k < 2; ++k) {
      const phy::NodeId src = nearest_node(tb, anchor, taken);
      phy::NodeId dst = src;
      double best_prr = -1.0;
      for (const phy::NodeId n : tb.connected_neighbors(src)) {
        if (!taken.count(n) && n != src && tb.prr(src, n) > best_prr) {
          best_prr = tb.prr(src, n);
          dst = n;
        }
      }
      taken.insert({src, dst});
      flows.push_back({src, dst});
    }
  }
  return flows;
}

}  // namespace cmap::testbed::pdes_test

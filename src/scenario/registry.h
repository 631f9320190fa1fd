// Named scenario lookup. The global registry comes pre-loaded with every
// builtin scenario (the paper's figures plus non-paper workloads); drivers
// and libraries register additional scenarios at startup.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace cmap::scenario {

class ScenarioRegistry {
 public:
  /// Register (or replace) a scenario under its own name.
  void add(Scenario scenario);

  /// nullptr when no scenario has that name.
  const Scenario* find(const std::string& name) const;

  /// Asserts that the scenario exists.
  const Scenario& at(const std::string& name) const;

  bool contains(const std::string& name) const {
    return find(name) != nullptr;
  }
  std::size_t size() const { return scenarios_.size(); }

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// The process-wide registry, pre-loaded with the builtins.
  static ScenarioRegistry& global();

 private:
  std::map<std::string, Scenario> scenarios_;
};

/// Install the builtin scenarios into `registry`:
///   fig12_exposed, fig13_inrange, fig15_hidden  — the Fig. 11 two-pair
///       constraint classes (§5.2/5.3/5.5);
///   single_link          — §4.2 calibration links;
///   ap_wlan_3..ap_wlan_6 — §5.6 access-point cells;
///   mesh_dissemination   — §5.7 two-hop dissemination (custom two-phase
///       executor);
///   interferer_triple    — §5.4 (S, R, I) triples (custom executor
///       measuring normalized throughput under interference);
///   disjoint_flows_2..disjoint_flows_7 — k concurrent disjoint flows
///       (Fig. 19's sender-scaling workload);
///   dest_queue_ablation  — §3.2 per-destination-queue ablation (custom
///       executor with a two-destination sender);
///   chain                — NEW: alternating hops of a random multi-hop
///       chain transmit concurrently;
///   mixed_floor          — NEW: one exposed and one hidden pair share the
///       floor, testing per-pair discrimination;
///   dense_grid_25        — NEW: a quarter of all nodes transmit
///       concurrently to their best-PRR neighbors (the PHY fast-path
///       stress workload) on the driver's building;
///   flows_50             — NEW: 50 such flows on a canonical 100-node
///       building (the MAC-decision stress workload);
///   testbed_100/400      — NEW: the dense-grid workload bound to a
///       canonical building of that size (Scenario::testbed +
///       TestbedCache; the measurement fast path's scaling family);
///   metro_10k            — NEW: 1% senders on 10,000 nodes over sparse
///       link state (the metropolitan-scale memory workload);
///   mobile_floor_25/50   — NEW: the dense-grid workload while half the
///       nodes random-waypoint under an evolving channel (src/dynamics/;
///       shortened defer TTL so conflict maps re-learn mid-run);
///   mobile_chain         — NEW: the chain workload with every node
///       drifting across the floor;
///   churn_25             — NEW: 25% of nodes teleport after exponential
///       dwell times (arrival/departure churn).
void register_builtin_scenarios(ScenarioRegistry& registry);

}  // namespace cmap::scenario

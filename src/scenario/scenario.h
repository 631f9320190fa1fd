// Declarative experiment scenarios. A Scenario says WHAT to measure — how
// to draw topologies on a testbed, how to execute one drawn instance, and
// what the default run parameters are — while the Sweep/SweepRunner layer
// (sweep.h) says over WHICH axes (schemes x variants x topologies x seeds)
// and executes the cartesian product in parallel. Scenarios are looked up
// by name in a ScenarioRegistry (registry.h); registering a new workload
// is ~20 lines. testbed::World remains the low-level escape hatch for
// drivers with needs the declarative layer cannot express.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"

namespace cmap::scenario {

/// One concrete draw of a scenario's topology: the flows to run, plus any
/// extra participants the scenario's executor needs (e.g. the mesh source,
/// an alternative destination, an interferer).
struct TopologyInstance {
  std::vector<testbed::Flow> flows;
  std::vector<phy::NodeId> extras;
  std::string label;
};

/// Everything one run needs: the (shared, read-only) testbed, the drawn
/// topology, and the cell's RunConfig (scheme, variant, duration and the
/// per-run mixed seed applied; the World resolves the scheme).
struct RunContext {
  const testbed::Testbed& tb;
  const TopologyInstance& topology;
  testbed::RunConfig config;
};

/// What one run produced. `metrics` carries scenario-specific scalars in a
/// stable order; `valid == false` drops the row from the report (e.g. a
/// control run below the measurement floor). `profile` is the run's
/// metrics snapshot when RunConfig::metrics was set (run_saturated_flows
/// forwards it; bespoke executors fill it with testbed::publish_metrics()
/// of the World they measure).
struct RunOutcome {
  double aggregate_mbps = 0.0;
  std::vector<testbed::FlowResult> flows;
  std::vector<std::pair<std::string, double>> metrics;
  std::shared_ptr<const metrics::MetricsSnapshot> profile;
  bool valid = true;
};

/// Draw up to `count` topology instances. Must be deterministic given the
/// rng state and must not retain references to it.
using TopologyFn = std::function<std::vector<TopologyInstance>(
    const testbed::Testbed& tb, int count, sim::Rng& rng)>;

/// Execute one drawn instance. Runs concurrently with other runs on worker
/// threads: it must touch only its RunContext (the testbed is const and
/// safe to share) and locally created state.
using RunFn = std::function<RunOutcome(const RunContext& ctx)>;

struct Scenario {
  std::string name;
  std::string description;
  TopologyFn topology;
  /// Executor; empty means run_saturated_flows().
  RunFn run;
  /// Per-scenario defaults (duration, warmup, MAC knobs). The sweep sets
  /// the scheme, seed and its duration/warmup/variant on top.
  testbed::RunConfig defaults;
  /// Canonical testbed for scenarios that prescribe their own building
  /// (e.g. the testbed_100/200/400 scaling family). Unset means the driver
  /// supplies one. SweepRunner's run(sweep) overload resolves it through
  /// the global TestbedCache, so repeated sweeps share one measurement
  /// pass.
  std::optional<testbed::TestbedConfig> testbed;
};

/// The default executor: saturate every flow of the instance and report
/// per-flow and aggregate goodput over the measurement window.
RunOutcome run_saturated_flows(const RunContext& ctx);

/// Short "s1->r1 s2->r2 ..." label for a flow set.
std::string describe_flows(const std::vector<testbed::Flow>& flows);

}  // namespace cmap::scenario

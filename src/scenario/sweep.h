// Sweep specification and parallel execution. A Sweep names a registered
// Scenario and the comparison axes — MAC schemes, optional config variants
// (knob settings), topology draws, and seed replicates — and SweepRunner
// executes the cartesian product on a thread pool. Every run is an
// independent simulation (own Simulator, World, and Rng), so execution is
// embarrassingly parallel and the report is byte-identical regardless of
// thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "stats/report.h"
#include "trace/trace.h"

namespace cmap::scenario {

/// One setting of a secondary knob axis (e.g. a send-window size or data
/// rate), applied to the RunConfig after the scheme.
struct ConfigVariant {
  std::string label;
  std::function<void(testbed::RunConfig&)> apply;
};

struct Sweep {
  std::string scenario;
  std::vector<testbed::Scheme> schemes = {testbed::Scheme::kCsma,
                                          testbed::Scheme::kCmap};
  /// Secondary axis; empty means a single unlabeled identity variant.
  std::vector<ConfigVariant> variants;
  int topologies = 16;   // topology draws (shared across schemes/variants)
  int replicates = 1;    // independent seeds per (scheme, variant, topology)
  std::uint64_t base_seed = 1;
  /// Replace the scenario's default run length / measurement warmup.
  std::optional<sim::Time> duration;
  std::optional<sim::Time> warmup;
  /// When set, every run emits a binary event trace. `trace->path` names a
  /// DIRECTORY; each run writes `trace_run_path(path, scenario, spec)`
  /// inside it (deterministic per cell, so reruns overwrite in place).
  /// An executor that runs more than one World per cell writes the earlier
  /// Worlds' streams next to it: `<cell path>.phase1` (mesh_dissemination's
  /// broadcast phase) and `<cell path>.alone` (interferer_triple's control
  /// run), in the style of the `.p<N>` partition streams.
  /// Categories / sampling apply to every run. Tracing never perturbs
  /// results — the report is identical with or without it.
  std::optional<trace::TraceConfig> trace;
  /// When set, every run accumulates metrics and its snapshot rides in the
  /// report row (stats::RunRow::profile). `metrics->path`, when non-empty,
  /// names a DIRECTORY; each run writes its snapshot JSON to
  /// `metrics_run_path(path, scenario, spec)`, which holds the measured
  /// World's snapshot; an executor with earlier Worlds writes theirs next
  /// to it with the same suffixes as their traces. Metrics never perturb
  /// results, and the counter sections are byte-identical across
  /// SweepRunner thread counts and PDES partition counts.
  std::optional<metrics::MetricsConfig> metrics;
};

/// One expanded cell of a sweep's cartesian product.
struct RunSpec {
  int scheme_index = 0;
  int variant_index = 0;
  int topology_index = 0;
  int replicate = 0;
  std::uint64_t seed = 0;  // fully mixed; see mix_seed()
};

/// Collision-resistant combination of run coordinates into one 64-bit
/// seed, built on sim::mix64. Replaces the old `seed * 7919 + scheme`
/// bench derivation, whose low-entropy arithmetic collided across schemes
/// and configs.
std::uint64_t mix_seed(std::initializer_list<std::uint64_t> parts);

/// FNV-1a, used to fold scenario names into the seed mix.
std::uint64_t hash_name(const std::string& name);

/// Deterministic per-run trace filename for a sweep cell:
/// `<dir>/<scenario>_s<scheme>_v<variant>_t<topology>_r<replicate>.cmtrace`.
std::string trace_run_path(const std::string& dir, const std::string& scenario,
                           const RunSpec& spec);

/// Deterministic per-run metrics filename for a sweep cell:
/// `<dir>/<scenario>_s<scheme>_v<variant>_t<topology>_r<replicate>.metrics.json`.
std::string metrics_run_path(const std::string& dir,
                             const std::string& scenario, const RunSpec& spec);

class SweepRunner {
 public:
  /// `threads` <= 0 resolves via sim::default_thread_count().
  explicit SweepRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Expand the sweep's axes against the number of topologies actually
  /// drawn, with per-run mixed seeds. Execution order never affects
  /// results; this defines the row order of the report.
  static std::vector<RunSpec> expand(const Sweep& sweep, int drawn_topologies);

  /// The exact topology draws run() will use for this sweep (same seeded
  /// rng), for drivers that want to display or post-process them.
  static std::vector<TopologyInstance> draw_topologies(
      const Sweep& sweep, const testbed::Testbed& tb,
      const ScenarioRegistry& registry = ScenarioRegistry::global());

  /// Draw topologies, execute every cell on the thread pool, and collect
  /// rows in deterministic (expansion) order.
  stats::SweepReport run(
      const Sweep& sweep, const testbed::Testbed& tb,
      const ScenarioRegistry& registry = ScenarioRegistry::global()) const;

  /// Same, but resolve the testbed from the scenario's canonical
  /// TestbedConfig (Scenario::testbed, asserted set) through the global
  /// TestbedCache — repeated sweeps over the same building reuse one
  /// measurement pass.
  stats::SweepReport run(
      const Sweep& sweep,
      const ScenarioRegistry& registry = ScenarioRegistry::global()) const;

 private:
  int threads_ = 1;
};

}  // namespace cmap::scenario

// Experiment harness: builds a live world (radios + MACs + traffic) over a
// measured Testbed and runs one configuration, reporting the paper's
// metrics (windowed goodput of non-duplicate packets, §5.1). The Scheme
// enum spans every MAC variant that appears in the evaluation's figures.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/cmap_mac.h"
#include "dynamics/dynamics.h"
#include "mac80211/dcf.h"
#include "metrics/metrics.h"
#include "net/traffic.h"
#include "phy/medium.h"
#include "phy/partition.h"
#include "phy/radio.h"
#include "sim/parallel.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "trace/trace.h"

namespace cmap::testbed {

enum class Scheme {
  kCsma,            // 802.11: carrier sense on, link-layer ACKs on
  kCsmaOffAcks,     // carrier sense off, ACKs on
  kCsmaOffNoAcks,   // carrier sense off, ACKs off
  kCmap,            // CMAP, prototype (shim) configuration
  kCmapWin1,        // CMAP with a send window of one virtual packet
  kCmapIntegrated,  // CMAP over the integrated/PPR PHY realization
};

const char* scheme_name(Scheme scheme);
bool scheme_is_cmap(Scheme scheme);

struct Flow {
  phy::NodeId src = 0;
  phy::NodeId dst = 0;

  bool operator==(const Flow&) const = default;
};

/// One run's configuration: set fields directly. The scheme wins: World's
/// constructor overlays the fields `scheme` fixes (listed once, in resolve()
/// in experiment.cpp) onto its MAC config and the radio, and config() then
/// reports what every node runs. Setting a scheme-fixed field, or an
/// invalid duration, warmup or packet size, aborts at World construction
/// naming the field.
struct RunConfig {
  Scheme scheme = Scheme::kCmap;
  sim::Time duration = sim::seconds(100);  // > 0
  sim::Time warmup = sim::seconds(40);  // in [0, duration]; measure the rest
  std::uint64_t seed = 1;
  std::size_t packet_bytes = 1400;  // >= 1
  // Only the scheme's own MAC reads its config; a knob both have (e.g.
  // data_rate) goes on both for a cross-scheme sweep.
  core::CmapConfig cmap;
  mac80211::DcfConfig dcf;
  // Time-varying environment (mobility and/or channel evolution); the
  // World instantiates the dynamics subsystem when set. Mobility bounds
  // default to the testbed's floor; the channel model wraps the testbed's
  // propagation per run, seeded from (its own seed, the run seed).
  std::optional<dynamics::DynamicsConfig> dynamics;
  // Event tracing: when set (and the path non-empty), the World opens a
  // Tracer over the configured categories and every subsystem streams into
  // it. Tracing never draws randomness or schedules events, so a traced
  // run's results are identical to an untraced one's. Under PDES each
  // partition additionally gets its own stream at `path + ".p<N>"`, and a
  // node's components bind their partition's stream at construction
  // (trace::merge_streams reassembles one time-ordered file).
  std::optional<trace::TraceConfig> trace;
  // Run-level metrics (metrics/metrics.h): when set, the World owns a
  // counter Registry every subsystem hooks into, and — under PDES — times
  // each partition's run. Like tracing, metrics never draw
  // randomness or schedule events, so a metered run's results are
  // identical to an unmetered one's; the counter section is additionally
  // byte-identical across partition and thread counts.
  std::optional<metrics::MetricsConfig> metrics;
  // Intra-run parallel execution (sim/pdes.h, docs/pdes.md). partitions ==
  // 1 keeps the single-queue serial path — the reference oracle PDES runs
  // are golden-tested byte-identical against — and so does `dynamics`,
  // whatever this says. Both fields must be >= 1. Results never depend on
  // partitions or threads.
  sim::PdesOptions pdes;

  // Kept only for bench/e2e/e2e_driver.cpp, the benchmark's pinned driver;
  // delete them when it next changes.
  RunConfig& with_metrics(metrics::MetricsConfig v) {
    metrics = std::move(v);
    return *this;
  }
  RunConfig& with_partitions(int v) { pdes.partitions = v; return *this; }
  RunConfig& with_pdes_threads(int v) { pdes.threads = v; return *this; }
};

/// A live simulation world. Benches with bespoke needs (mesh phases,
/// mid-run inspection) use this directly; run_flows() covers the common
/// saturated-flows case.
///
/// When nodes are built: serially, add_node and add_saturated_flow build
/// at once. Under PDES (config().pdes.partitions > 1 and no dynamics) they
/// only record the request, because the partition plan (phy/partition.h)
/// groups the run's live nodes by link component: the first run() or node
/// accessor (mac, sink, cmap, dcf, radio, medium, set_measurement_window)
/// plans the recorded nodes and builds them in the recorded order. Adding
/// a node after that aborts, naming it.
class World {
 public:
  World(const Testbed& tb, const RunConfig& config);

  /// Instantiate radio + MAC + sink for a testbed node (idempotent).
  void add_node(phy::NodeId id);

  /// Saturate `src` toward `dst` (kBroadcastId allowed for CMAP §3.6).
  void add_saturated_flow(phy::NodeId src, phy::NodeId dst);

  /// Set every built sink's measurement window.
  void set_measurement_window(sim::Time begin, sim::Time end);

  /// Drive the world to `until`. Under PDES every partition simulator
  /// runs to `until` side by side (sim::ThreadTeam), else the serial
  /// simulator does.
  void run(sim::Time until);

  /// The run simulator. Under PDES it holds no events: per-node events
  /// live on partition simulators instead — drive partial runs through
  /// run(), not this.
  sim::Simulator& simulator() { return sim_; }
  mac::Mac& mac(phy::NodeId id);
  net::PacketSink& sink(phy::NodeId id);
  core::CmapMac* cmap(phy::NodeId id);          // nullptr for DCF schemes
  mac80211::DcfMac* dcf(phy::NodeId id);        // nullptr for CMAP schemes
  phy::Radio& radio(phy::NodeId id);
  /// The medium; under PDES, medium().partition_of(id) is node id's
  /// partition (-1 for a testbed node not built).
  const phy::Medium& medium();
  const RunConfig& config() const { return config_; }
  /// The dynamics subsystem, when config().dynamics is set (else nullptr).
  const dynamics::Dynamics* dynamics() const { return dynamics_.get(); }
  /// The run's tracer, when config().trace is set (else nullptr). Tests
  /// use it to mark stream positions (records_written) mid-run.
  trace::Tracer* tracer() const { return tracer_.get(); }
  /// The run's metrics registry, when config().metrics is set (else
  /// nullptr).
  metrics::Registry* metrics() const { return registry_.get(); }
  /// Assemble the full snapshot: the registry's counter section plus the
  /// execution profile (queue depths, per-partition timing). Meaningful
  /// any time, but normally taken after run().
  metrics::MetricsSnapshot metrics_snapshot();

 private:
  struct NodeState {
    std::unique_ptr<phy::Radio> radio;
    std::unique_ptr<mac::Mac> mac;
    std::unique_ptr<net::PacketSink> sink;
    std::unique_ptr<net::SaturatedSource> source;
  };

  /// A node or flow asked for before a PDES world is built.
  struct Request {
    phy::NodeId src = 0;
    phy::NodeId dst = 0;
    bool flow = false;  // add_saturated_flow(src, dst), else add_node(src)
  };

  /// The simulator `id`'s components schedule on: its partition's under
  /// PDES, the run simulator otherwise.
  sim::Simulator& node_simulator(phy::NodeId id);
  /// Under PDES, on first call: plan the requested nodes and build them.
  void build_requested();

  const Testbed& tb_;
  RunConfig config_;  // resolved against its scheme at construction
  phy::RadioConfig radio_config_;  // every node's: the scheme's salvage
  sim::Simulator sim_;
  sim::Rng rng_;
  // Owns the trace stream; bound into medium_ before any node or dynamics
  // instrumentation binds its hook (they cache the tracer pointer).
  std::unique_ptr<trace::Tracer> tracer_;
  // Owns the run's counter registry; bound into medium_ alongside the
  // tracer, before any hook caches it.
  std::unique_ptr<metrics::Registry> registry_;
  // PDES state (empty on the serial path). Declared before medium_
  // (which reads the plan) and nodes_ (whose radios live on the partition
  // simulators).
  phy::PartitionPlan plan_;
  std::vector<std::unique_ptr<sim::Simulator>> part_sims_;
  std::unique_ptr<sim::ThreadTeam> team_;  // runs the partitions
  std::vector<std::unique_ptr<trace::Tracer>> part_tracers_;
  std::vector<Request> requests_;  // until built_
  bool built_ = true;              // false under PDES until first built
  // The execution profile of the PDES run() calls (metrics_snapshot).
  std::uint64_t pdes_runs_ = 0;
  std::array<std::uint64_t, 64> window_log2_{};
  std::vector<std::uint64_t> busy_ns_;  // per partition; timed with metrics
  std::uint64_t parallel_ns_ = 0;
  // Per-run channel wrapper (nullptr without channel dynamics); must
  // outlive and precede medium_, which holds it as its propagation model.
  std::shared_ptr<dynamics::DynamicShadowing> channel_;
  phy::Medium medium_;
  std::unique_ptr<dynamics::Dynamics> dynamics_;
  std::map<phy::NodeId, NodeState> nodes_;
};

struct FlowResult {
  Flow flow;
  double mbps = 0.0;
  std::uint64_t unique_packets = 0;
  std::uint64_t duplicates = 0;
  mac::MacStats sender_stats;
  // CMAP-only observability (zero under DCF schemes).
  std::uint64_t vps_sent = 0;
  // VPs of this flow's sender whose header or trailer (delim), or whose
  // header, the receiver saw.
  std::uint64_t rx_vps_delim = 0;
  std::uint64_t rx_vps_header = 0;
  std::uint64_t defer_events = 0;
  std::uint64_t retx_timeouts = 0;

  bool operator==(const FlowResult&) const = default;
};

struct RunResult {
  std::vector<FlowResult> flows;
  double aggregate_mbps = 0.0;
  /// Set when config.metrics was: the run's full metrics snapshot.
  /// shared_ptr so results stay cheap to copy around report assembly.
  std::shared_ptr<const metrics::MetricsSnapshot> profile;
};

/// Run saturated unicast flows under one scheme and report per-flow and
/// aggregate goodput over the measurement window.
RunResult run_flows(const Testbed& tb, const std::vector<Flow>& flows,
                    const RunConfig& config);

/// What run_flows reports for `flows` once `world` has run: per-flow and
/// aggregate results, plus the metrics snapshot from publish_metrics().
RunResult collect_results(World& world, const std::vector<Flow>& flows);

/// The finished `world`'s metrics snapshot, also written as JSON to
/// config().metrics->path when that is non-empty; nullptr when the world
/// runs without metrics. Aborts naming the path if it cannot be written.
std::shared_ptr<const metrics::MetricsSnapshot> publish_metrics(World& world);

}  // namespace cmap::testbed

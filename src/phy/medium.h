// The shared wireless medium: fans a transmission out to every attached
// radio whose received power clears the delivery floor, applying
// propagation loss, per-delivery fading and propagation delay.
//
// Link state is sparse: nothing O(n^2) ever materializes. A uniform-grid
// spatial index over radio positions supplies candidate neighbors within
// the propagation model's guard-banded range bound
// (PropagationModel::rx_power_bound_dbm). Each source keeps one row: the
// links whose mean gain clears the cull floor (delivery floor minus the
// fading guard band), sorted by destination, with gains and delays cached.
// A move touches only the mover's old and new candidate neighborhoods.
// Below-floor candidates go on a per-source *watch list* only when the
// model is time-varying (epoch_delta_bound_db > 0); refresh_all() then
// re-checks a watched link only once the accumulated per-epoch AR(1)
// delta bound says it could have crossed the floor.
//
// A row must equal what a brute-force scan of every radio through the
// propagation model finds (docs/link_state.md); the test-only link oracle
// (tests/oracles/link_oracle.h) checks exactly that, through row().
//
// Per-delivery fading is drawn from a substream keyed on (frame id,
// receiver id) rather than a shared sequential stream, so culling a
// hopeless receiver cannot perturb any other delivery's randomness — with
// fading disabled the culled fan-out is exactly a fan-out to every radio;
// with fading enabled they may differ only when a fade exceeds the guard
// band (cull_guard_sigmas sigmas, probability ~1e-9 at the default 6).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "metrics/metrics.h"
#include "phy/frame.h"
#include "phy/partition.h"
#include "phy/propagation.h"
#include "phy/spatial_index.h"
#include "phy/types.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace cmap::phy {

class Radio;

/// Validated by the Medium constructor: a negative or non-finite
/// fading_sigma_db or cull_guard_sigmas, or a non-finite
/// delivery_floor_dbm, aborts naming the field.
struct MediumConfig {
  // Deliveries whose faded power (mean gain plus this delivery's fade)
  // falls below this are dropped: they would change any SINR by < ~0.5 dB
  // but cost events. 10 dB under the default noise floor.
  double delivery_floor_dbm = -104.0;
  // Per-delivery lognormal fading (temporal channel variation); this is
  // what widens the PRR transition band into the testbed's "12% of links
  // in (0.1, 1)" middle class.
  double fading_sigma_db = 2.0;
  // Guard band in units of fading_sigma_db: a culled receiver would need a
  // fade this many sigmas above the mean to have cleared the floor. Also
  // the confidence (in component sigmas) handed to the propagation model's
  // range and epoch-delta bounds. With fading_sigma_db == 0 culling is
  // exact.
  double cull_guard_sigmas = 6.0;

  bool operator==(const MediumConfig&) const = default;
};

class Medium {
 public:
  Medium(std::shared_ptr<const PropagationModel> propagation,
         MediumConfig config, sim::Rng rng);

  /// Register a radio (called by the Radio constructor). Ids must be
  /// unique per medium and small/dense (< 2^20, the same bound the net
  /// layer's packet-id packing imposes): the id index is a flat vector
  /// sized to the largest attached id. Violations abort loudly with the
  /// offending id.
  void attach(Radio* radio);

  /// Re-cache `radio`'s links after a position change (called by
  /// Radio::set_position). The spatial grid remembers the old position, so
  /// only the two candidate neighborhoods (old and new) are touched.
  void on_position_changed(Radio& radio);

  /// Reconcile cached link state with the propagation model's *current*
  /// answers — the call for a dynamics epoch step that re-shadows every
  /// link at once. Counts one channel epoch, recomputes every materialized
  /// (above-floor) link, and promotes watched below-floor links only once
  /// their accumulated epoch-delta bound says they could have crossed — so
  /// a time-varying model must report a sound epoch_delta_bound_db.
  void refresh_all();

  /// Fan `frame` out from `source` to all other attached radios.
  void transmit(Radio& source, std::shared_ptr<const Frame> frame);

  /// Mean (unfaded) received power from `from` to `to`, for link
  /// measurement and topology classification. A pair outside the source's
  /// row (below the cull floor) is answered by querying the propagation
  /// model directly.
  double mean_rx_power_dbm(NodeId from, NodeId to) const;

  /// Attach (or detach, with nullptr) the run's Tracer. The medium is the
  /// natural anchor: every instrumented component already reaches it
  /// (radios attach to it, MACs own a radio, dynamics hold a reference),
  /// so each binds its own cached-mask TraceHook from here. Call before
  /// radios are attached — Radio binds in its constructor.
  void set_tracer(trace::Tracer* tracer) { trace_.bind(tracer); }
  trace::Tracer* tracer() const { return trace_.tracer; }

  /// Attach (or detach, with nullptr) the run's metrics Registry. Same
  /// anchor role as set_tracer: call before radios attach — every
  /// instrumented component binds its own cached MetricsHook from here.
  /// Unlike tracers the registry is not per-partition: its slots are
  /// commutative relaxed atomics, safe to share across partition threads.
  void set_metrics(metrics::Registry* registry) {
    metrics_.bind(registry, metrics::Domain::kPhy);
    metrics_dyn_.bind(registry, metrics::Domain::kDynamics);
  }
  metrics::Registry* metrics() const { return metrics_.registry; }

  /// Install a PDES partition plan (testbed::World does, before any radio
  /// attaches; it must outlive the medium or be cleared with nullptr).
  /// Every radio must be planned before it attaches, and attach aborts on
  /// a row link between two partitions: no delivery ever crosses one.
  void set_plan(const PartitionPlan* plan) { plan_ = plan; }
  /// The partition `id`'s events run in (0 without a plan).
  int partition_of(NodeId id) const {
    return plan_ != nullptr ? plan_->partition_of(id) : 0;
  }

  /// Per-partition trace streams, one per planned partition. Components
  /// of a node bind tracer_for(id): the node's partition stream under a
  /// plan, else the run tracer. Install before radios attach.
  void set_partition_tracers(std::vector<trace::Tracer*> tracers) {
    part_tracers_ = std::move(tracers);
  }
  trace::Tracer* tracer_for(NodeId id) const {
    if (plan_ == nullptr || part_tracers_.empty()) return trace_.tracer;
    return part_tracers_[static_cast<std::size_t>(partition_of(id))];
  }

  /// The row links `nodes` would have, were each attached at its position
  /// with `tx_power_dbm`: every pair whose link from -> to would clear
  /// the cull floor, as indices into `nodes`. A PDES plan groups nodes by
  /// these before any radio is built (phy/partition.h). Counts no metric.
  std::vector<LiveLink> row_links_among(std::span<const LiveNode> nodes,
                                        double tx_power_dbm) const;

  const MediumConfig& config() const { return config_; }
  const PropagationModel& propagation() const { return *propagation_; }
  const std::vector<Radio*>& radios() const { return radios_; }
  Radio* radio(NodeId id) const;

  /// One entry of a source's link row: a receiver whose mean gain clears
  /// the cull floor, with the gain and delay transmit() delivers with.
  struct RowLink {
    std::uint32_t dst = 0;  // receiver's attach index: radios()[dst]
    double gain_dbm = 0.0;  // mean (unfaded) received power
    sim::Time delay = 0;    // propagation delay, ns
  };
  /// `source`'s link row, sorted by destination index: exactly the
  /// receivers transmit() fans out to (tests/oracles/link_oracle.h checks
  /// it against the propagation model).
  std::span<const RowLink> row(NodeId source) const;

  /// Observability: the grid-derived candidate radius (m) and the total
  /// below-floor links currently on watch lists.
  double candidate_radius_m() const { return candidate_radius_m_; }
  std::size_t watch_entries() const;

 private:
  // Below-floor candidates, kept sorted by destination index like rows.
  struct WatchEntry {
    std::uint32_t dst = 0;
    double gain_dbm = 0.0;            // at the last evaluation
    std::uint64_t checked_epoch = 0;  // refresh_all count at that time
  };
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  RowLink compute_link(std::uint32_t src, std::uint32_t dst) const;
  void deliver_one(Radio& target, const RowLink& link,
                   const std::shared_ptr<const Frame>& frame, sim::Time now);
  std::uint32_t index_of(NodeId id) const;
  double cull_floor_dbm() const;
  /// Spatial-grid pitch for queries of `radius_m`.
  static double grid_pitch(double radius_m);

  void ensure_candidate_radius(double tx_power_dbm);
  /// Compute both directions between radio `idx` and every grid candidate
  /// around its position, filing each into its source's row or watch list.
  void link_neighborhood(std::uint32_t idx);
  /// File the (src -> link.dst) link into src's row or watch list.
  void sparse_classify(std::uint32_t src, const RowLink& link);
  /// Drop dst from src's active row or watch list (no-op when absent).
  void sparse_erase(std::uint32_t src, std::uint32_t dst);

  std::shared_ptr<const PropagationModel> propagation_;
  MediumConfig config_;
  trace::TraceHook trace_;
  metrics::MetricsHook metrics_;      // Domain::kPhy counters
  metrics::MetricsHook metrics_dyn_;  // move/invalidation counters
  sim::Rng rng_;  // seed material for per-(frame, receiver) fading draws
  std::vector<Radio*> radios_;
  std::vector<std::uint32_t> index_by_id_;       // NodeId -> attach index
  std::unique_ptr<SpatialGrid> grid_;
  std::vector<std::vector<RowLink>> sparse_rows_;
  std::vector<std::vector<WatchEntry>> watch_rows_;
  std::vector<std::uint32_t> scratch_;  // candidate-query reuse buffer
  double max_tx_power_dbm_ = 0.0;       // valid once any radio attached
  double candidate_radius_m_ = 0.0;
  double dyn_delta_db_ = 0.0;  // model's per-epoch bound; 0 = static
  bool track_watch_ = false;   // dyn_delta_db_ > 0: keep below-floor lists
  std::uint64_t channel_epoch_ = 0;
  // ---- PDES plan (null/empty on the serial path) ----
  const PartitionPlan* plan_ = nullptr;
  std::vector<trace::Tracer*> part_tracers_;
};

}  // namespace cmap::phy

// Run-level metrics: a deterministic, zero-overhead-when-off counter
// registry plus the execution profile of one run (ROADMAP "measure
// itself"; catalog and contract in docs/metrics.md).
//
// Cost model mirrors the trace subsystem (trace/trace.h): every
// instrumented component holds a MetricsHook whose enablement is cached at
// bind time, so a disabled site pays exactly one branch on a cached word —
// no virtual call, no pointer chase, no atomic. With metrics off entirely
// (RunConfig::metrics unset, the default) the hook mask is zero.
// bench_metrics measures the disabled-mode ratio and CI gates it at 1.02.
//
// Determinism contract: the counter section is a pure function of
// (config, seed) — byte-identical across SweepRunner thread counts AND
// across PDES partition counts (tests/metrics/test_metrics_golden.cpp).
// Counters are relaxed std::atomic sums and maxes: both are commutative,
// so the value is independent of the order partition workers interleave
// their increments, and concurrent increments are race-free under TSan.
// Everything that genuinely depends on the execution strategy — event
// queue depths, PDES rounds, windows, mailbox traffic, barrier waits,
// wall-clock timings — lives in the separate *execution* section of the
// snapshot, which is explicitly exempt from the byte-identity contract.
//
// Registry state is run-local (owned by the World, like the Tracer), never
// static: runs stay independent and cmap_lint's mutable-static rule stays
// green.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/time.h"

namespace cmap::metrics {

/// Instrumentation domains, mirroring the subsystem split. A hook binds
/// with its component's domain; domains outside MetricsConfig::domains
/// cost one branch at the site and nothing else.
enum class Domain : std::uint8_t {
  kPhy = 0,       // Medium + Radio: fan-out, caches, collisions
  kMac = 1,       // CmapMac: defer decisions, DeferTable, OngoingList
  kSim = 2,       // event queues + PDES execution profile
  kDynamics = 3,  // mobility moves, cache invalidations, channel epochs
  kCount
};

inline constexpr std::size_t kDomainCount =
    static_cast<std::size_t>(Domain::kCount);

constexpr std::uint32_t bit(Domain d) {
  return 1u << static_cast<std::uint32_t>(d);
}

inline constexpr std::uint32_t kAllDomains = (1u << kDomainCount) - 1;

/// The deterministic counter catalog. Every entry is either a sum or a
/// high-water max of per-event quantities the simulation itself fully
/// determines, so totals are invariant to how the run was executed.
enum class Counter : std::uint16_t {
  // -- Domain::kPhy --
  kPhyTransmits = 0,        // frames put on the air (Medium::transmit)
  kPhyGainCacheHits,        // link-gain lookups served from cache
  kPhyGainCacheMisses,      // link-gain lookups that recomputed the model
  kPhyCulledReceivers,      // receivers outside the source's cached row
  kPhyDeliveries,           // per-receiver delivery events scheduled
  kPhyFloorDrops,           // deliveries dropped below the noise floor
  kPhyWatchRechecks,        // sparse watch-list links rechecked on refresh
  kPhyRxOk,                 // locked frames decoded clean
  kPhyRxCorrupt,            // locked frames that failed the SINR sweep
  kPhyCollisionPreambleSinr,  // receptions lost: preamble under lock SINR
  kPhyCollisionCaptured,      // receptions lost: captured by stronger frame
  kPhyCollisionLocalTx,       // receptions lost: own transmission started
  // -- Domain::kMac --
  kMacSendDecisions,     // CMAP send/defer decisions taken
  kMacDeferDstBusy,      // deferred: destination party to an ongoing tx
  kMacDeferConflictMap,  // deferred: a conflict-map pattern matched
  kMacDeferProbes,       // DeferTable hash-chain probes
  kMacDeferInserts,      // DeferTable entries newly linked
  kMacDeferRefreshes,    // DeferTable TTLs refreshed in place
  kMacDeferTtlExpiries,  // DeferTable entries reclaimed past their TTL
  kMacDeferOccupancyHw,  // max live DeferTable entries on any one node
  kMacOngoingActiveHw,   // max active OngoingList entries on any one node
  // -- Domain::kDynamics --
  kDynMoves,              // node position updates applied
  kDynIncrementalInvalidations,  // moves absorbed by sparse row updates
  kDynFullRefreshes,      // channel epochs that refreshed every cached row
  kDynChannelEpochs,      // AR(1) channel-dynamics epochs advanced
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// How a counter accumulates: kSum adds, kMax keeps the high water.
enum class Kind : std::uint8_t { kSum, kMax };

/// Stable short name ("phy.gain_cache_hits", ...), the JSON key and the
/// table label.
const char* counter_name(Counter c);
Kind counter_kind(Counter c);
Domain counter_domain(Counter c);

/// The RunConfig / Sweep knob.
struct MetricsConfig {
  /// Per-run snapshot JSON file. For Sweep-level metrics this names a
  /// directory instead (see scenario::metrics_run_path()); empty writes no
  /// file — the snapshot still rides in the run result.
  std::string path;
  /// Enabled-domain bitmask (bit(Domain)).
  std::uint32_t domains = kAllDomains;

  bool operator==(const MetricsConfig&) const = default;
};

/// The run-local accumulator. Thread-safe by construction: every slot is a
/// relaxed atomic and every operation is commutative, so PDES partition
/// workers may increment concurrently without perturbing the totals.
class Registry {
 public:
  explicit Registry(std::uint32_t domains = kAllDomains)
      : domains_(domains) {
    for (auto& v : values_) v.store(0, std::memory_order_relaxed);
  }
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  std::uint32_t domains() const { return domains_; }

  void add(Counter c, std::uint64_t n) {
    values_[static_cast<std::size_t>(c)].fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  /// Raise the slot to at least v (relaxed CAS max — commutative).
  void raise(Counter c, std::uint64_t v) {
    auto& slot = values_[static_cast<std::size_t>(c)];
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < v &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value(Counter c) const {
    return values_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

 private:
  std::uint32_t domains_;
  std::array<std::atomic<std::uint64_t>, kCounterCount> values_;
};

/// The per-component handle instrumentation sites check, mirroring
/// trace::TraceHook: `mask` caches "registry present AND my domain
/// enabled" at bind time, so a disabled site costs exactly one branch.
struct MetricsHook {
  Registry* registry = nullptr;
  std::uint32_t mask = 0;

  void bind(Registry* r, Domain d) {
    registry = r;
    mask = (r != nullptr && (r->domains() & bit(d)) != 0) ? 1u : 0u;
  }
  bool on() const { return mask != 0; }
  void inc(Counter c) const {
    if (mask != 0) registry->add(c, 1);
  }
  void add(Counter c, std::uint64_t n) const {
    if (mask != 0) registry->add(c, n);
  }
  void raise(Counter c, std::uint64_t v) const {
    if (mask != 0) registry->raise(c, v);
  }
};

/// One partition's share of the run, for the PDES stall attribution rows.
/// barrier_wait_ms is the partition's idle share of the parallel phase:
/// the total time windows were executing anywhere minus the time this
/// partition's own events were executing.
struct PartitionExec {
  int partition = 0;
  std::uint64_t executed = 0;        // events dispatched by this queue
  std::uint64_t mailbox_posted = 0;  // cross-group messages addressed to it
  double busy_ms = 0.0;
  double barrier_wait_ms = 0.0;
};

/// Everything one run measured, split into the deterministic counter
/// section (counters_json(), byte-identical across thread and partition
/// counts) and the execution section (everything else — explicitly a
/// property of how the run was executed, not of the simulation).
struct MetricsSnapshot {
  std::uint32_t domains = 0;

  // ---- deterministic counter section ----
  std::array<std::uint64_t, kCounterCount> counters{};

  // ---- execution section (not covered by the byte-identity contract) ----
  int partitions = 1;
  int threads = 1;  // threads that ran windows: min(threads, partitions)
  std::uint64_t queue_depth_high_water = 0;  // max heap depth, any queue
  std::uint64_t queue_compactions = 0;       // cancelled-entry compactions
  std::uint64_t rounds = 0;                  // conservative PDES rounds
  std::uint64_t global_barriers = 0;         // global-sequencer barriers
  /// Histogram of conservative window sizes: bin i counts windows with
  /// floor(log2(size_ns)) == i (bin 0 also takes size 1 ns).
  std::array<std::uint64_t, 64> window_log2{};
  std::vector<PartitionExec> parts;
  double parallel_wall_ms = 0.0;  // total time partition windows were live

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }

  /// Deterministic section only: {"phy.transmits":N,...}, fixed catalog
  /// order, enabled domains only. The byte-identity tests compare exactly
  /// this string.
  std::string counters_json() const;
  /// Full snapshot: {"counters":{...},"execution":{...}}.
  std::string to_json() const;
  /// Aligned two-column table of the counter section (debugging aid).
  void print_counters(std::FILE* out = stdout) const;
};

/// Sum/max-merge the counter sections of many runs (the per-sweep
/// aggregated table). Execution sections are intentionally not merged —
/// they describe individual runs. Null entries are skipped.
MetricsSnapshot aggregate_counters(
    const std::vector<const MetricsSnapshot*>& runs);

}  // namespace cmap::metrics

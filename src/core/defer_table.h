// The defer table — this node's slice of the network-wide conflict map
// (§3.1). Populated from neighbours' interferer lists via two local rules,
// consulted before every transmission via two defer patterns:
//
//   Update rule 1: for (me, q) in I_r  ->  add (r : q -> *)
//     "don't send to r while q is transmitting to anyone"
//   Update rule 2: for (q, me) in I_r  ->  add (* : q -> r)
//     "don't send to anyone while q is transmitting to r"
//
//   Defer pattern 1: (* : p -> q)   matches ongoing p -> q
//   Defer pattern 2: (v : p -> *)   matches destination v, ongoing sender p
//
// Entries age out (defer_entry_ttl) so the map tracks changing channels.
// With rate annotation enabled (§3.5) entries only match transmissions at
// the rates under which the conflict was observed.
//
// Lookup is the MAC's per-transmit-attempt hot path, so entries live in a
// slot pool indexed by two hash buckets that mirror the defer patterns:
// wildcard-destination entries (* : p -> q) under key (src, via) and
// wildcard-via entries (v : p -> *) under key (dst, src). should_defer is
// then two bucket probes instead of a scan of the whole table, and expired
// entries are reclaimed lazily as probes touch them. The test-only oracle
// in tests/oracles/defer_oracle.h restates both patterns as a linear scan
// over entries().
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/wire.h"
#include "metrics/metrics.h"
#include "phy/types.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace cmap::core {

struct DeferEntry {
  phy::NodeId dst;     // v, or kBroadcastId for "*"
  phy::NodeId src;     // q/p: the transmitting node to defer to
  phy::NodeId via;     // its destination, or kBroadcastId for "*"
  phy::WifiRate my_rate = kAnyRate;       // §3.5 annotation
  phy::WifiRate their_rate = kAnyRate;    // §3.5 annotation
  sim::Time expires = 0;
};

class DeferTable {
 public:
  explicit DeferTable(sim::Time ttl, bool annotate_rates = false)
      : ttl_(ttl), annotate_rates_(annotate_rates) {}

  /// Stream every mutation (insert / TTL refresh / expiry reclamation) as
  /// kDeferTable records. `self` is the owning node's id — the table does
  /// not otherwise know it. Trace emission never changes table behaviour.
  void set_tracer(trace::Tracer* tracer, phy::NodeId self) {
    trace_.bind(tracer, self);
  }

  /// Count probes, inserts/refreshes, TTL reclamations and the occupancy
  /// high-water mark into `registry` (kMac domain). Like tracing, metrics
  /// never change table behaviour.
  void set_metrics(metrics::Registry* registry) {
    metrics_.bind(registry, metrics::Domain::kMac);
  }

  /// Apply both update rules for an interferer list received from
  /// `reporter`. `self` is this node's id. Re-reported conflicts refresh
  /// the existing entry's TTL; the table never grows on duplicates.
  void apply_interferer_list(phy::NodeId self, phy::NodeId reporter,
                             const std::vector<InterfererEntry>& entries,
                             sim::Time now);

  /// Should a transmission to `my_dst` at `my_rate` defer to the ongoing
  /// transmission p -> q at `their_rate`? Checks both defer patterns via
  /// the bucket indexes; expired entries touched by the probe are
  /// reclaimed in passing (lazy TTL expiry).
  bool should_defer(phy::NodeId my_dst, phy::NodeId p, phy::NodeId q,
                    sim::Time now, phy::WifiRate my_rate = kAnyRate,
                    phy::WifiRate their_rate = kAnyRate) const;

  /// Eagerly drop every expired entry (lazy reclamation makes this
  /// optional; CmapMac calls it once per interferer-list application to
  /// bound memory at a known point).
  void expire(sim::Time now);

  /// Live entries (expired entries linger until a probe or expire() call
  /// reclaims them, exactly like the pre-index representation).
  std::size_t size() const { return live_count_; }

  /// Snapshot of the linked entries, including lapsed ones no probe has
  /// reclaimed yet, for introspection and tests. Order is unspecified
  /// (slot order, which recycling perturbs).
  std::vector<DeferEntry> entries() const;

  /// TTL-live entries at `now` (expires > now), sorted by (dst, src, via,
  /// my_rate, their_rate) — the canonical order trace::DeferTableReplay
  /// reports in, so a live table and a trace reconstruction compare
  /// directly. Pure read: unlike the probes, never reclaims.
  std::vector<DeferEntry> snapshot(sim::Time now) const;

 private:
  using Bucket = std::vector<std::uint32_t>;  // slot indices
  using Index = std::unordered_map<std::uint64_t, Bucket>;

  struct Slot {
    DeferEntry e;
    bool live = false;
  };

  /// NodeIds are 32-bit, so a pair packs losslessly into the map key.
  static std::uint64_t pair_key(phy::NodeId a, phy::NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  static bool rate_matches(phy::WifiRate entry_rate, phy::WifiRate rate);

  void upsert(DeferEntry e, sim::Time now);
  void link(std::uint32_t idx) const;
  void unlink(std::uint32_t idx, sim::Time now) const;
  Bucket& primary_bucket(const DeferEntry& e);
  bool probe(Index& index, std::uint64_t key, sim::Time now,
             phy::WifiRate my_rate, phy::WifiRate their_rate) const;

  sim::Time ttl_;
  bool annotate_rates_;
  trace::TraceHook trace_;
  metrics::MetricsHook metrics_;
  // Mutable: should_defer is logically const but reclaims expired entries
  // it touches. The table is owned by one CmapMac on one simulation
  // thread, so this is not a concurrency hazard.
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_;
  mutable Index by_src_via_;  // entries with dst == *  (defer pattern 1)
  mutable Index by_dst_src_;  // entries with via == *  (defer pattern 2)
  mutable std::size_t live_count_ = 0;
};

}  // namespace cmap::core

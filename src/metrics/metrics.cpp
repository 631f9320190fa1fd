#include "metrics/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace cmap::metrics {

namespace {

struct CounterInfo {
  const char* name;
  Kind kind;
  Domain domain;
};

// Indexed by Counter; order must match the enum (static_assert below).
constexpr CounterInfo kCatalog[] = {
    {"phy.transmits", Kind::kSum, Domain::kPhy},
    {"phy.gain_cache_hits", Kind::kSum, Domain::kPhy},
    {"phy.gain_cache_misses", Kind::kSum, Domain::kPhy},
    {"phy.culled_receivers", Kind::kSum, Domain::kPhy},
    {"phy.deliveries", Kind::kSum, Domain::kPhy},
    {"phy.floor_drops", Kind::kSum, Domain::kPhy},
    {"phy.watch_rechecks", Kind::kSum, Domain::kPhy},
    {"phy.rx_ok", Kind::kSum, Domain::kPhy},
    {"phy.rx_corrupt", Kind::kSum, Domain::kPhy},
    {"phy.collision_preamble_sinr", Kind::kSum, Domain::kPhy},
    {"phy.collision_captured", Kind::kSum, Domain::kPhy},
    {"phy.collision_local_tx", Kind::kSum, Domain::kPhy},
    {"mac.send_decisions", Kind::kSum, Domain::kMac},
    {"mac.defer_dst_busy", Kind::kSum, Domain::kMac},
    {"mac.defer_conflict_map", Kind::kSum, Domain::kMac},
    {"mac.defer_probes", Kind::kSum, Domain::kMac},
    {"mac.defer_inserts", Kind::kSum, Domain::kMac},
    {"mac.defer_refreshes", Kind::kSum, Domain::kMac},
    {"mac.defer_ttl_expiries", Kind::kSum, Domain::kMac},
    {"mac.defer_occupancy_hw", Kind::kMax, Domain::kMac},
    {"mac.ongoing_active_hw", Kind::kMax, Domain::kMac},
    {"dyn.moves", Kind::kSum, Domain::kDynamics},
    {"dyn.incremental_invalidations", Kind::kSum, Domain::kDynamics},
    {"dyn.full_refreshes", Kind::kSum, Domain::kDynamics},
    {"dyn.channel_epochs", Kind::kSum, Domain::kDynamics},
};

static_assert(sizeof(kCatalog) / sizeof(kCatalog[0]) == kCounterCount,
              "counter catalog out of sync with the Counter enum");

void append_u64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

void append_ms(std::string* out, double ms) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  *out += buf;
}

}  // namespace

const char* counter_name(Counter c) {
  return kCatalog[static_cast<std::size_t>(c)].name;
}

Kind counter_kind(Counter c) {
  return kCatalog[static_cast<std::size_t>(c)].kind;
}

Domain counter_domain(Counter c) {
  return kCatalog[static_cast<std::size_t>(c)].domain;
}

std::string MetricsSnapshot::counters_json() const {
  std::string out = "{";
  bool first = true;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if ((domains & bit(kCatalog[i].domain)) == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += kCatalog[i].name;
    out += "\":";
    append_u64(&out, counters[i]);
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":";
  out += counters_json();
  out += ",\"execution\":{\"partitions\":";
  append_u64(&out, static_cast<std::uint64_t>(partitions));
  out += ",\"threads\":";
  append_u64(&out, static_cast<std::uint64_t>(threads));
  out += ",\"queue_depth_high_water\":";
  append_u64(&out, queue_depth_high_water);
  out += ",\"queue_compactions\":";
  append_u64(&out, queue_compactions);
  out += ",\"rounds\":";
  append_u64(&out, rounds);
  out += ",\"global_barriers\":";
  append_u64(&out, global_barriers);
  out += ",\"parallel_wall_ms\":";
  append_ms(&out, parallel_wall_ms);
  // The histogram serializes sparsely: only occupied bins, as
  // "log2_bin": count — windows span ns to seconds, so most bins are 0.
  out += ",\"window_log2\":{";
  bool first = true;
  for (std::size_t i = 0; i < window_log2.size(); ++i) {
    if (window_log2[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "\"";
    append_u64(&out, static_cast<std::uint64_t>(i));
    out += "\":";
    append_u64(&out, window_log2[i]);
  }
  out += "},\"partitions_detail\":[";
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const PartitionExec& p = parts[i];
    if (i != 0) out += ",";
    out += "{\"partition\":";
    append_u64(&out, static_cast<std::uint64_t>(p.partition));
    out += ",\"executed\":";
    append_u64(&out, p.executed);
    out += ",\"mailbox_posted\":";
    append_u64(&out, p.mailbox_posted);
    out += ",\"busy_ms\":";
    append_ms(&out, p.busy_ms);
    out += ",\"barrier_wait_ms\":";
    append_ms(&out, p.barrier_wait_ms);
    out += "}";
  }
  out += "]}}";
  return out;
}

void MetricsSnapshot::print_counters(std::FILE* out) const {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if ((domains & bit(kCatalog[i].domain)) == 0) continue;
    std::fprintf(out, "  %-32s %12" PRIu64 "\n", kCatalog[i].name,
                 counters[i]);
  }
}

MetricsSnapshot aggregate_counters(
    const std::vector<const MetricsSnapshot*>& runs) {
  MetricsSnapshot total;
  for (const MetricsSnapshot* run : runs) {
    if (run == nullptr) continue;
    total.domains |= run->domains;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      if (kCatalog[i].kind == Kind::kMax) {
        if (run->counters[i] > total.counters[i]) {
          total.counters[i] = run->counters[i];
        }
      } else {
        total.counters[i] += run->counters[i];
      }
    }
  }
  return total;
}

}  // namespace cmap::metrics

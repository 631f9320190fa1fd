// MAC decision bench: times the CMAP send decision ("may I send to v now?",
// §3.2) in both implementations — the fast path (indexed DeferTable probes
// over an allocation-free ongoing ring, via DeferDecider::decide) and the
// test-only oracle's scan (snapshot + O(entries) table scan per ongoing
// transmission, tests/oracles/defer_oracle.h) — against the conflict-map
// state of a node watching many concurrent flows. Reports the speedup and
// verifies every decision (defer bit and recheck time) is identical
// across the two paths. Doubles
// as a CI regression probe: the timing row rides in the CMAP_BENCH_JSON
// report and tools/check_bench_regression.py enforces mac_decide_speedup
// as a machine-independent minimum (both paths timed in this process)
// plus the calibration-normalized wall-clock gates.
//
// Knobs: CMAP_BENCH_FLOWS (default 200) concurrent transmissions on the
// observer's ongoing list; CMAP_BENCH_DECISIONS (default 4000) timed
// decisions per path.
#include <cstdint>
#include <vector>

#include "bench_main.h"
#include "core/cmap_mac.h"
#include "core/defer_table.h"
#include "core/ongoing_list.h"
#include "oracles/defer_oracle.h"
#include "sim/random.h"

using namespace cmap;
using namespace cmap::bench;

namespace {

// One decision sequence, shared verbatim by both timed loops. Destinations
// cycle over idle targets (the defer-table probes decide) with every 8th
// aimed at a busy receiver (the dst-busy check decides); `now` creeps
// forward inside the window where nothing expires, so both paths see the
// exact same live state on every query.
struct Query {
  phy::NodeId dst;
  sim::Time now;
};

struct Tally {
  std::uint64_t defers = 0;
  std::uint64_t until_hash = 0;  // folds every recheck time

  void absorb(const core::DeferDecision& d) {
    if (d.defer) {
      ++defers;
      until_hash =
          sim::mix64(until_hash ^ static_cast<std::uint64_t>(d.until));
    }
  }
  bool operator==(const Tally& o) const {
    return defers == o.defers && until_hash == o.until_hash;
  }
};

}  // namespace

int main() {
  const Scale s = load_scale();
  const int flows = static_cast<int>(env_long("CMAP_BENCH_FLOWS", 200));
  const long decisions =
      env_long("CMAP_BENCH_DECISIONS", 4000);
  print_header("MAC send decision: fast (indexed) vs oracle scan",
               "no paper claim — per-transmit-attempt hot path at high "
               "concurrency",
               s);
  std::printf("flows: %d (CMAP_BENCH_FLOWS), decisions: %ld "
              "(CMAP_BENCH_DECISIONS)\n",
              flows, decisions);

  // Node layout: senders 0..F-1, receivers F..2F-1, observer 2F, idle
  // query targets 2F+1..2F+kTargets.
  const auto F = static_cast<phy::NodeId>(flows);
  const phy::NodeId self = 2 * F;
  constexpr phy::NodeId kTargets = 64;

  core::OngoingList ongoing;
  core::DeferTable table(sim::seconds(1000));
  sim::Rng rng(s.seed);

  // Every flow on the air until well past the query window.
  for (phy::NodeId i = 0; i < F; ++i) {
    core::VpDescriptor d;
    d.src = i;
    d.dst = F + i;
    d.data_rate = phy::WifiRate::k6Mbps;
    ongoing.note(d, sim::seconds(50) + sim::milliseconds(i));
  }

  // The observer's slice of the conflict map, populated through the real
  // update rules. The first half of the targets are "conflicted": their
  // lists report (self, sender) conflicts against live senders (rule 1),
  // so sending to them defers. The second half are clean — decisions for
  // them come out "clear to send", which is the oracle scan's worst
  // case (no early exit anywhere: every ongoing pair scans the whole
  // table). No rule-2 entry references a live flow on purpose: one such
  // entry would force EVERY decision to defer and flatten the mix.
  for (phy::NodeId t = 0; t < kTargets / 2; ++t) {
    for (phy::NodeId i = 0; i < F; ++i) {
      if (rng.bernoulli(0.04)) {
        table.apply_interferer_list(self, self + 1 + t, {{self, i}}, 0);
      }
    }
  }
  // Stale mass: conflicts against neighbours that are NOT transmitting —
  // the oracle scan pays for every one of them on every ongoing pair,
  // the index never touches them. (Realistic: the table ages out over a
  // 20 s TTL while the set of active senders turns over much faster.)
  // Both rule shapes, so both pattern indexes carry dead weight too.
  for (std::uint32_t k = 0; k < 192; ++k) {
    table.apply_interferer_list(
        self, self + 1 + (k % kTargets), {{self, 1'000'000 + k}}, 0);
  }
  for (std::uint32_t k = 0; k < 192; ++k) {
    table.apply_interferer_list(self, F + (k % F), {{500'000 + k, self}}, 0);
  }
  const double table_entries = static_cast<double>(table.size());
  std::printf("ongoing: %zu transmissions, defer table: %.0f entries\n",
              ongoing.size(), table_entries);

  std::vector<Query> queries;
  queries.reserve(static_cast<std::size_t>(decisions));
  for (long q = 0; q < decisions; ++q) {
    Query qu;
    qu.dst = (q % 8 == 7)
                 ? F + static_cast<phy::NodeId>(q % flows)     // busy
                 : self + 1 + static_cast<phy::NodeId>(q) % kTargets;  // idle
    qu.now = sim::seconds(1) + q;  // creep forward, nothing expires
    queries.push_back(qu);
  }

  const core::DeferDecider decider(ongoing, table, self,
                                   /*annotate_rates=*/false);

  // Oracle first: it must not benefit from the fast pass's lazy
  // reclamation (there is nothing expired to reclaim here, but the order
  // keeps the comparison honest by construction).
  Tally ref_tally;
  double t0 = cpu_ms_now();
  for (const Query& q : queries) {
    ref_tally.absorb(oracles::decide(ongoing, table, self,
                                     /*annotate_rates=*/false, q.dst,
                                     core::kAnyRate, q.now));
  }
  const double ref_ms = cpu_ms_now() - t0;

  Tally fast_tally;
  t0 = cpu_ms_now();
  for (const Query& q : queries) {
    fast_tally.absorb(decider.decide(q.dst, core::kAnyRate, q.now));
  }
  const double fast_ms = cpu_ms_now() - t0;

  // Floor the denominator at one clock quantum so a sub-resolution fast
  // pass reads as very fast, not as a division by zero.
  const double speedup = ref_ms / std::max(fast_ms, 1000.0 / CLOCKS_PER_SEC);
  const bool match = fast_tally == ref_tally;

  std::printf("oracle scan:           %8.1f CPU-ms (%llu defers)\n", ref_ms,
              static_cast<unsigned long long>(ref_tally.defers));
  std::printf("fast (indexed):        %8.1f CPU-ms (%llu defers)\n", fast_ms,
              static_cast<unsigned long long>(fast_tally.defers));
  std::printf("speedup:               %8.1fx\n", speedup);
  std::printf("decisions identical:   %s\n",
              match ? "yes (defer bits + recheck times)" : "NO — BUG");

  stats::SweepReport report;
  stats::RunRow timing;
  timing.scenario = "mac_decide_bench";
  timing.scheme = "timing";
  timing.topology = "cpu-time";
  // Knob values ride along so the regression gate can reject a comparison
  // whose workload drifted from the baseline's; *_ms rows are normalized
  // by calibration_ms; mac_decide_speedup is gated as a raw minimum and
  // decisions_match as a fixed 1.0.
  timing.metrics = {{"flows", static_cast<double>(flows)},
                    {"decisions", static_cast<double>(decisions)},
                    {"table_entries", table_entries},
                    {"decide_oracle_cpu_ms", ref_ms},
                    {"decide_fast_cpu_ms", fast_ms},
                    {"mac_decide_speedup", speedup},
                    {"decisions_match", match ? 1.0 : 0.0},
                    {"calibration_ms", calibration_ms()}};
  report.add_row(std::move(timing));

  maybe_write_json(report);
  return match ? 0 : 1;
}

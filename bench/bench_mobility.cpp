// Mobility link-maintenance bench: times what node moves cost the phy
// medium's cached link rows —
//   incremental (Medium::on_position_changed): the spatial grid remembers
//       the mover's old position, so only the old and new candidate
//       neighborhoods are re-linked, O(neighbors) per move;
//   fresh build (the reference): a new medium built from scratch at the
//       positions each move leaves behind, O(n * neighbors) per move —
// over an identical seeded move sequence on a shadowed floor, then verifies
// the moved medium landed in a bit-identical state to a fresh build at the
// final positions (every mean gain, every row size). Reports the speedup;
// the row audits (test_sparse_golden.cpp) separately check every row of
// whole mobile runs against the brute-force link oracle.
//
// Doubles as a CI regression probe: the timing row rides in CMAP_BENCH_JSON
// and tools/check_bench_regression.py enforces mobility_speedup as a
// machine-independent minimum (both sides timed in this process) and
// mobility_states_match == 1.0.
//
// Knobs: CMAP_BENCH_NODES (default 150) radios on the floor;
// CMAP_BENCH_MOVES (default 1000) timed moves per side.
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_main.h"
#include "phy/medium.h"
#include "phy/propagation.h"
#include "phy/radio.h"
#include "sim/random.h"
#include "sim/simulator.h"

using namespace cmap;
using namespace cmap::bench;

namespace {

struct Move {
  std::size_t who;
  phy::Position to;
};

// A floor of radios at the given positions over shadowed propagation (the
// realistic per-link cost), no MACs or traffic — this bench isolates link
// maintenance.
struct Floor {
  Floor(const std::vector<phy::Position>& positions, std::uint64_t seed) {
    phy::LogDistanceConfig prop_cfg;
    prop_cfg.seed = seed;
    propagation = std::make_shared<phy::LogDistanceShadowing>(prop_cfg);
    medium = std::make_unique<phy::Medium>(sim, propagation,
                                           phy::MediumConfig{},
                                           sim::Rng(seed));
    auto error = std::make_shared<phy::NistErrorModel>();
    for (std::size_t i = 0; i < positions.size(); ++i) {
      radios.push_back(std::make_unique<phy::Radio>(
          sim, *medium, static_cast<phy::NodeId>(i), positions[i],
          phy::RadioConfig{}, error, sim::Rng(seed + 1 + i)));
    }
  }

  sim::Simulator sim;
  std::shared_ptr<const phy::PropagationModel> propagation;
  std::unique_ptr<phy::Medium> medium;
  std::vector<std::unique_ptr<phy::Radio>> radios;
};

// Order-sensitive digest of the whole link state: every mean gain and
// every row size. Gains determine the rows, but hashing both makes the
// check self-contained.
std::uint64_t state_hash(const Floor& floor) {
  std::uint64_t h = 0x243f6a8885a308d3ull;
  const int n = static_cast<int>(floor.radios.size());
  for (int a = 0; a < n; ++a) {
    h = sim::mix64(
        h ^ floor.medium->row(static_cast<phy::NodeId>(a)).size());
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      const double g = floor.medium->mean_rx_power_dbm(
          static_cast<phy::NodeId>(a), static_cast<phy::NodeId>(b));
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(g));
      std::memcpy(&bits, &g, sizeof(bits));
      h = sim::mix64(h ^ bits);
    }
  }
  return h;
}

}  // namespace

int main() {
  const Scale s = load_scale();
  const int nodes = static_cast<int>(env_long("CMAP_BENCH_NODES", 150));
  const long n_moves = env_long("CMAP_BENCH_MOVES", 1000);
  // Same floor density as the paper's 50-node / 70x40 m office.
  const double scale = std::sqrt(nodes / 50.0);
  const double width = 70.0 * scale, height = 40.0 * scale;
  print_header("Mobility: incremental link maintenance vs fresh build",
               "no paper claim — per-move link maintenance under the "
               "dynamics subsystem",
               s);
  std::printf("nodes: %d (CMAP_BENCH_NODES), moves: %ld (CMAP_BENCH_MOVES)\n",
              nodes, n_moves);

  // One seeded layout and move sequence shared verbatim by both sides: a
  // random node hops to a random point (the worst case for row upkeep —
  // every move can cross the cull floor against many sources).
  sim::Rng rng(s.seed);
  std::vector<phy::Position> start;
  for (int i = 0; i < nodes; ++i) {
    start.push_back({rng.uniform(0.0, width), rng.uniform(0.0, height)});
  }
  std::vector<Move> moves;
  moves.reserve(static_cast<std::size_t>(n_moves));
  for (long m = 0; m < n_moves; ++m) {
    Move mv;
    mv.who = static_cast<std::size_t>(rng.uniform_int(0, nodes - 1));
    mv.to = {rng.uniform(0.0, width), rng.uniform(0.0, height)};
    moves.push_back(mv);
  }

  // Reference first, as elsewhere: it must not benefit from anything the
  // fast pass warmed up. Each move costs a whole new medium at the
  // positions the move leaves behind; the last one is the final state.
  std::vector<phy::Position> positions = start;
  auto ref_floor = std::make_unique<Floor>(positions, s.seed);
  double t0 = cpu_ms_now();
  for (const Move& m : moves) {
    positions[m.who] = m.to;
    ref_floor = std::make_unique<Floor>(positions, s.seed);
  }
  const double ref_ms = cpu_ms_now() - t0;
  const std::uint64_t ref_hash = state_hash(*ref_floor);

  Floor fast_floor(start, s.seed);
  t0 = cpu_ms_now();
  for (const Move& m : moves) fast_floor.radios[m.who]->set_position(m.to);
  const double fast_ms = cpu_ms_now() - t0;
  const std::uint64_t fast_hash = state_hash(fast_floor);

  // Floor the denominator at one clock quantum so a sub-resolution fast
  // pass reads as very fast, not as a division by zero.
  const double speedup = ref_ms / std::max(fast_ms, 1000.0 / CLOCKS_PER_SEC);
  const bool match = ref_hash == fast_hash;

  std::printf("fresh build (ref):     %8.1f CPU-ms\n", ref_ms);
  std::printf("incremental:           %8.1f CPU-ms\n", fast_ms);
  std::printf("speedup:               %8.1fx\n", speedup);
  std::printf("states identical:      %s\n",
              match ? "yes (gains + row sizes)" : "NO — BUG");

  stats::SweepReport report;
  stats::RunRow timing;
  timing.scenario = "mobility_bench";
  timing.scheme = "timing";
  timing.topology = "cpu-time";
  // Knob values ride along so the regression gate can reject a comparison
  // whose workload drifted from the baseline's; mobility_speedup is gated
  // as a raw minimum, mobility_states_match as a fixed 1.0, and the
  // reference runtime is informational (it only exists as the speedup's
  // denominator).
  timing.metrics = {{"nodes", static_cast<double>(nodes)},
                    {"moves", static_cast<double>(n_moves)},
                    {"move_reference_cpu_ms", ref_ms},
                    {"move_fast_cpu_ms", fast_ms},
                    {"mobility_speedup", speedup},
                    {"mobility_states_match", match ? 1.0 : 0.0},
                    {"calibration_ms", calibration_ms()}};
  report.add_row(std::move(timing));

  maybe_write_json(report);
  return match ? 0 : 1;
}

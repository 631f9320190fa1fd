#include "phy/medium.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "dynamics/channel.h"
#include "metrics/metrics.h"
#include "oracles/link_oracle.h"
#include "phy_test_util.h"
#include "sim/time.h"

namespace cmap::phy {
namespace {

using testing::World;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const NistErrorModel> nist() {
  return std::make_shared<NistErrorModel>();
}

TEST(Medium, PropagationDelayMatchesDistance) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {300, 0});  // 300 m -> ~1 us
  sim::Time rx_start = -1;

  class StartListener : public testing::RecordingListener {
   public:
    explicit StartListener(sim::Simulator& s, sim::Time* t) : sim_(s), t_(t) {}
    void on_rx_start(const Frame& f, sim::Time end) override {
      RecordingListener::on_rx_start(f, end);
      *t_ = sim_.now();
    }
    sim::Simulator& sim_;
    sim::Time* t_;
  } listener(w.simulator(), &rx_start);
  w.radio(1).set_listener(&listener);

  w.simulator().at(0, [&] { a.transmit(World::whole_frame(100)); });
  w.simulator().run();
  // Lock decision happens at preamble end: delay + 20 us.
  const double expected_delay_ns = 300.0 / 2.99792458e8 * 1e9;
  ASSERT_GE(rx_start, 0);
  EXPECT_NEAR(static_cast<double>(rx_start),
              expected_delay_ns + 20e3, 30.0);
}

TEST(Medium, NoFadingIsDeterministicAcrossRuns) {
  auto run_once = [] {
    World w(nist());
    Radio& a = w.add_radio(1, {0, 0});
    w.add_radio(2, {320, 0});  // marginal link
    for (int i = 0; i < 50; ++i) {
      w.simulator().at(i * sim::milliseconds(2),
                       [&] { a.transmit(World::whole_frame(1400)); });
    }
    w.simulator().run();
    return w.radio(1).counters().rx_ok;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Medium, MeanRxPowerIsDirectional) {
  World w(nist());
  w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  // Friis is symmetric; both directions match at equal tx power.
  EXPECT_DOUBLE_EQ(w.medium().mean_rx_power_dbm(1, 2),
                   w.medium().mean_rx_power_dbm(2, 1));
}

TEST(Medium, FrameIdsAreUniqueAndMonotone) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {50, 0});
  const sim::Time gap = frame_airtime(WifiRate::k6Mbps, 100) + 1000;
  for (int i = 0; i < 3; ++i) {
    w.simulator().at(i * gap, [&] { a.transmit(World::whole_frame(100)); });
  }
  w.simulator().run();
  const auto& ends = w.listener(1).rx_ends;
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_LT(ends[0].frame.id, ends[1].frame.id);
  EXPECT_LT(ends[1].frame.id, ends[2].frame.id);
}

TEST(Medium, RadioLookupById) {
  World w(nist());
  w.add_radio(7, {0, 0});
  w.add_radio(9, {10, 0});
  EXPECT_EQ(w.medium().radio(7)->id(), 7u);
  EXPECT_EQ(w.medium().radio(9)->id(), 9u);
  EXPECT_EQ(w.medium().radio(42), nullptr);
}

TEST(Medium, GainCacheMatchesPropagationModel) {
  World w(nist());  // gain cache on by default
  Radio& a = w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {120, 35});
  const double direct = w.medium().propagation().rx_power_dbm(
      a.config().tx_power_dbm, 1, 2, a.position(), b.position());
  EXPECT_DOUBLE_EQ(w.medium().mean_rx_power_dbm(1, 2), direct);
}

TEST(Medium, GainCacheInvalidatedOnPositionChange) {
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {100, 0});
  const double before = w.medium().mean_rx_power_dbm(1, 2);
  b.set_position({10, 0});
  const double direct = w.medium().propagation().rx_power_dbm(
      a.config().tx_power_dbm, 1, 2, a.position(), b.position());
  EXPECT_DOUBLE_EQ(w.medium().mean_rx_power_dbm(1, 2), direct);
  EXPECT_GT(w.medium().mean_rx_power_dbm(1, 2), before);
}

TEST(Medium, CullingSkipsRadiosBelowTheDeliveryFloor) {
  // Fading off -> no guard band; culling is exact.
  World w(nist());
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {100, 0});      // well inside the floor
  w.add_radio(3, {500'000, 0});  // hopeless: far below the delivery floor
  EXPECT_EQ(w.medium().row(1).size(), 1u);
  EXPECT_EQ(w.medium().row(3).size(), 0u);
  w.simulator().at(0, [&] { a.transmit(World::whole_frame(100)); });
  w.simulator().run();
  EXPECT_EQ(w.listener(1).rx_starts.size(), 1u);  // radio 2 locked
  EXPECT_TRUE(w.listener(2).rx_starts.empty());   // radio 3 heard nothing
  EXPECT_TRUE(w.radio(2).interference().signals().empty());
}

TEST(Medium, ReachabilityFollowsPositionChanges) {
  World w(nist());
  w.add_radio(1, {0, 0});
  Radio& b = w.add_radio(2, {500'000, 0});
  EXPECT_EQ(w.medium().row(1).size(), 0u);
  b.set_position({50, 0});
  EXPECT_EQ(w.medium().row(1).size(), 1u);
  b.set_position({500'000, 0});
  EXPECT_EQ(w.medium().row(1).size(), 0u);
}

// Per-receiver outcomes of 80 frames from radio 1 under fading, and the
// size of radio 1's row. Per-(frame, receiver) fading substreams make
// culling invisible to every surviving delivery, so the culled fan-out
// must reproduce the unculled one frame for frame.
auto delivery_outcomes(const MediumConfig& mcfg, std::size_t* fanout) {
  World w(nist(), mcfg);
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {320, 0});      // marginal link, fading decides
  w.add_radio(3, {150, 40});     // solid link
  w.add_radio(4, {900'000, 0});  // culled unless the guard is huge
  *fanout = w.medium().row(1).size();
  for (int i = 0; i < 80; ++i) {
    w.simulator().at(i * sim::milliseconds(2),
                     [&] { a.transmit(World::whole_frame(1400)); });
  }
  w.simulator().run();
  return std::tuple{w.radio(1).counters().locks, w.radio(1).counters().rx_ok,
                    w.radio(2).counters().locks, w.radio(2).counters().rx_ok,
                    w.listener(3).rx_starts.size()};
}

// A guard band this wide puts the cull floor some 2,000 dB under the
// delivery floor: every other radio is in every row, so the delivery floor
// alone decides who hears a frame — the same code path with nothing culled.
MediumConfig unculled(MediumConfig mcfg) {
  mcfg.cull_guard_sigmas = 1000.0;
  return mcfg;
}

TEST(Medium, FastAndReferencePathsProduceIdenticalOutcomes) {
  // The default medium (fading ON, default sigma 2 dB) against itself with
  // nothing culled.
  std::size_t culled = 0;
  std::size_t full = 0;
  EXPECT_EQ(delivery_outcomes(MediumConfig{}, &culled),
            delivery_outcomes(unculled(MediumConfig{}), &full));
  EXPECT_EQ(full, 3u);  // n - 1
  EXPECT_EQ(culled, 2u);
}

// ---- Link maintenance under moves and channel changes ----

// The propagation model's answer for from -> to, asked directly.
double direct_gain(const Medium& m, NodeId from, NodeId to) {
  const Radio& a = *m.radio(from);
  const Radio& b = *m.radio(to);
  return m.propagation().rx_power_dbm(a.config().tx_power_dbm, from, to,
                                      a.position(), b.position());
}

// Friis with call counting — the observable cost of link maintenance.
// `bounded` exposes Friis' range bound so the spatial index prunes far
// candidates; unbounded, every radio is a candidate (the degenerate full
// scan), which must still file links identically.
class CountingPropagation final : public PropagationModel {
 public:
  explicit CountingPropagation(bool bounded = false) : bounded_(bounded) {}
  double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                      const Position& from_pos,
                      const Position& to_pos) const override {
    ++calls;
    return inner_.rx_power_dbm(tx_power_dbm, from, to, from_pos, to_pos);
  }
  double rx_power_bound_dbm(double tx_power_dbm, double distance_m,
                            double guard_sigmas) const override {
    return bounded_ ? inner_.rx_power_bound_dbm(tx_power_dbm, distance_m,
                                                guard_sigmas)
                    : PropagationModel::rx_power_bound_dbm(
                          tx_power_dbm, distance_m, guard_sigmas);
  }
  mutable std::uint64_t calls = 0;

 private:
  FriisPropagation inner_;
  bool bounded_;
};

// A bare medium over a counting model, radios placed on a line.
struct CountingWorld {
  explicit CountingWorld(int n, MediumConfig mcfg = World::NoFadingConfig(),
                         bool bounded = false)
      : propagation(std::make_shared<CountingPropagation>(bounded)),
        medium(sim, propagation, mcfg, sim::Rng(7)) {
    for (int i = 0; i < n; ++i) add(Position{40.0 * i, 10.0 * (i % 3)});
  }

  void add(Position pos) {
    const auto id = static_cast<NodeId>(radios.size());
    radios.push_back(std::make_unique<Radio>(sim, medium, id, pos,
                                             RadioConfig{}, error,
                                             sim::Rng(500 + id)));
  }

  sim::Simulator sim;
  std::shared_ptr<CountingPropagation> propagation;
  std::shared_ptr<NistErrorModel> error = std::make_shared<NistErrorModel>();
  Medium medium;
  std::vector<std::unique_ptr<Radio>> radios;
};

// A random hop spanning both sides of the ~5 km Friis delivery range, so
// moves carry receivers into and out of rows.
Position random_hop(sim::Rng& rng) {
  return {rng.uniform(0.0, 12'000.0), rng.uniform(0.0, 400.0)};
}

TEST(MediumInvalidate, IncrementalMoveRecomputesOnlyTheMoversRowsAndColumns) {
  constexpr int kNodes = 9;
  CountingWorld w(kNodes);
  w.propagation->calls = 0;
  w.radios[4]->set_position({123, 17});
  // One outbound and one inbound link per other radio — nothing else.
  EXPECT_EQ(w.propagation->calls, 2u * (kNodes - 1));
}

// A move sequence against the link oracle: after every move each row must
// equal the brute-force row, and every mean gain the model's own answer.
void check_interleaved_moves_against_oracle(bool bounded) {
  constexpr int kNodes = 12;
  CountingWorld w(kNodes, World::NoFadingConfig(), bounded);
  sim::Rng moves(99);
  for (int m = 0; m < 40; ++m) {
    const auto who = static_cast<std::size_t>(moves.uniform_int(0, kNodes - 1));
    w.radios[who]->set_position(random_hop(moves));
    ASSERT_EQ(oracles::audit_all_rows(w.medium), "") << "after move " << m;
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        const auto src = static_cast<NodeId>(a);
        const auto dst = static_cast<NodeId>(b);
        ASSERT_EQ(w.medium.mean_rx_power_dbm(src, dst),
                  direct_gain(w.medium, src, dst))
            << "after move " << m << " link " << a << "->" << b;
      }
    }
  }
}

TEST(MediumInvalidate, InterleavedMovesMatchTheFullRebuildReference) {
  // Unbounded model: every move rescans all radios as candidates (the
  // degenerate full scan).
  check_interleaved_moves_against_oracle(/*bounded=*/false);
}

TEST(MediumSparse, SparseAndDenseAgreeAfterInterleavedMoves) {
  // Range-bounded model: the spatial index prunes far candidates, and the
  // rows must still match the brute-force count move for move.
  check_interleaved_moves_against_oracle(/*bounded=*/true);
}

// A medium that absorbed a move sequence must hold exactly the state a
// fresh build at the final positions holds: same rows, same gains.
void check_moved_matches_fresh_build(bool bounded) {
  constexpr int kNodes = 10;
  CountingWorld moved(kNodes, World::NoFadingConfig(), bounded);
  std::vector<Position> final_pos;
  for (const auto& r : moved.radios) final_pos.push_back(r->position());
  sim::Rng mv(3);
  for (int m = 0; m < 30; ++m) {
    const auto who = static_cast<std::size_t>(mv.uniform_int(0, kNodes - 1));
    final_pos[who] = random_hop(mv);
    moved.radios[who]->set_position(final_pos[who]);
  }
  CountingWorld fresh(0, World::NoFadingConfig(), bounded);
  for (const Position& p : final_pos) fresh.add(p);
  for (int a = 0; a < kNodes; ++a) {
    const auto src = static_cast<NodeId>(a);
    EXPECT_EQ(moved.medium.row(src).size(),
              fresh.medium.row(src).size())
        << "source " << a;
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      const auto dst = static_cast<NodeId>(b);
      EXPECT_EQ(moved.medium.mean_rx_power_dbm(src, dst),
                fresh.medium.mean_rx_power_dbm(src, dst))
          << "link " << a << "->" << b;
    }
  }
}

TEST(MediumInvalidate, MovedMediumMatchesAFreshBuildAtFinalPositions) {
  check_moved_matches_fresh_build(/*bounded=*/false);
}

TEST(MediumSparse, MovedSparseMediumMatchesAFreshSparseBuild) {
  check_moved_matches_fresh_build(/*bounded=*/true);
}

TEST(MediumInvalidate, RefreshAllReconcilesAChangedChannel) {
  // refresh_all() exists for channel-epoch steps: the model's answers
  // change underneath the cache, and one full refresh restores coherence.
  class Shiftable final : public PropagationModel {
   public:
    double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                        const Position& from_pos,
                        const Position& to_pos) const override {
      return inner_.rx_power_dbm(tx_power_dbm, from, to, from_pos, to_pos) +
             shift_db;
    }
    double shift_db = 0.0;

   private:
    FriisPropagation inner_;
  };
  sim::Simulator sim;
  auto prop = std::make_shared<Shiftable>();
  Medium medium(sim, prop, World::NoFadingConfig(), sim::Rng(7));
  auto error = std::make_shared<NistErrorModel>();
  Radio a(sim, medium, 1, {0, 0}, RadioConfig{}, error, sim::Rng(1));
  Radio b(sim, medium, 2, {80, 0}, RadioConfig{}, error, sim::Rng(2));
  const double before = medium.mean_rx_power_dbm(1, 2);
  prop->shift_db = -7.0;
  EXPECT_DOUBLE_EQ(medium.mean_rx_power_dbm(1, 2), before);  // stale cache
  medium.refresh_all();
  EXPECT_DOUBLE_EQ(medium.mean_rx_power_dbm(1, 2), before - 7.0);
}

// ---- Sparse link state: spatial index and watch lists ----

TEST(MediumSparse, BoundedModelNeverComputesCrossClusterGains) {
  // Two 6-node clusters ~1e6 m apart: with a range-bounded model the
  // spatial index must keep every cross-cluster pair out of the candidate
  // sets, so attaching all 12 radios costs only within-cluster queries.
  CountingWorld w(0, World::NoFadingConfig(), /*bounded=*/true);
  for (int i = 0; i < 12; ++i) {
    const double base_x = i < 6 ? 0.0 : 1.0e6;
    w.add({base_x + 30.0 * (i % 6), 12.0 * (i % 3)});
  }
  EXPECT_TRUE(std::isfinite(w.medium.candidate_radius_m()));
  // 2 clusters x 6*5 directed within-cluster pairs; nothing else.
  EXPECT_EQ(w.propagation->calls, 2u * 30u);
  for (int a = 0; a < 12; ++a) {
    EXPECT_EQ(w.medium.row(static_cast<NodeId>(a)).size(), 5u) << a;
  }
  // Off-grid queries still answer (computed directly, not cached).
  EXPECT_LT(w.medium.mean_rx_power_dbm(0, 11), -150.0);
}

TEST(MediumSparse, EpochRefreshTracksDynamicShadowingViaWatchLists) {
  // A time-varying channel: below-floor links sit on watch lists and are
  // only re-evaluated once the AR(1) epoch-delta bound says they could
  // have crossed the cull floor. Over many epochs every row must equal
  // the link oracle's brute-force row, including links that cross the
  // floor in either direction, and every mean gain the model's answer.
  constexpr int kNodes = 14;
  dynamics::ChannelConfig cc;
  cc.sigma_db = 4.0;
  cc.correlation = 0.7;
  cc.seed = 42;
  auto base = std::make_shared<LogDistanceShadowing>();
  auto channel = std::make_shared<dynamics::DynamicShadowing>(base, cc);
  World w(nist(), World::NoFadingConfig(), channel);
  sim::Rng place(11);
  for (int i = 0; i < kNodes; ++i) {
    // Spread so plenty of pair gains straddle the delivery floor.
    w.add_radio(static_cast<NodeId>(i),
                {place.uniform(0.0, 260.0), place.uniform(0.0, 260.0)});
  }
  const Medium& medium = w.medium();
  bool saw_watch = false;
  for (int epoch = 0; epoch < 12; ++epoch) {
    channel->advance_epoch();
    w.medium().refresh_all();
    saw_watch |= medium.watch_entries() > 0;
    ASSERT_EQ(oracles::audit_all_rows(medium), "") << "epoch " << epoch;
    for (int a = 0; a < kNodes; ++a) {
      for (int b = 0; b < kNodes; ++b) {
        if (a == b) continue;
        const auto src = static_cast<NodeId>(a);
        const auto dst = static_cast<NodeId>(b);
        ASSERT_EQ(medium.mean_rx_power_dbm(src, dst),
                  direct_gain(medium, src, dst))
            << "epoch " << epoch << " link " << a << "->" << b;
      }
    }
  }
  // The scenario is only interesting if the watch machinery engaged.
  EXPECT_TRUE(saw_watch);
}

TEST(MediumSparse, StaticModelKeepsNoWatchLists) {
  // With a static propagation model nothing can ever cross the floor, so
  // below-floor candidates are discarded outright — the property that
  // keeps 10k-node static worlds at active-links-only memory.
  World w(nist());
  w.add_radio(1, {0, 0});
  w.add_radio(2, {320, 0});
  w.add_radio(3, {3000, 0});
  EXPECT_EQ(w.medium().watch_entries(), 0u);
}

TEST(MediumSparse, SparseAndReferenceDeliveriesAreIdenticalWithFading) {
  // Wider fading (6 dB) widens the cull guard band; the culled medium
  // must still match the unculled one delivery for delivery.
  MediumConfig wide;
  wide.fading_sigma_db = 6.0;
  std::size_t culled = 0;
  std::size_t full = 0;
  EXPECT_EQ(delivery_outcomes(wide, &culled),
            delivery_outcomes(unculled(wide), &full));
  EXPECT_EQ(full, 3u);  // n - 1
  EXPECT_LT(culled, full);
}

// ---- Early floor drops (docs/link_state.md) ----

// The full delivery test of Medium::deliver_one: does `gain` faded by the
// draw `d` fall below the floor?
bool full_drop(const MediumConfig& cfg, double gain, const sim::NormalDraw& d) {
  return gain + cfg.fading_sigma_db * d.value() < cfg.delivery_floor_dbm;
}

// The early exit must never drop a fade the full computation delivers.
// Real draws against gains from the cull floor to one sigma over the
// delivery floor, and against gains within 1e-12 dB of it.
TEST(MediumEarlyDrop, EarlyDropImpliesTheFullComputationDrops) {
  const MediumConfig cfg;
  const double floor = cfg.delivery_floor_dbm;
  const double sigma = cfg.fading_sigma_db;
  const double cull = floor - cfg.cull_guard_sigmas * sigma;
  const double ulp = floor - std::nextafter(floor, -kInf);
  std::vector<double> gains;
  for (int i = 0; i <= 280; ++i) {
    gains.push_back(cull + (floor + sigma - cull) * i / 280.0);
  }
  for (int n = 1; n <= 64; ++n) gains.push_back(floor - n * ulp);
  gains.push_back(floor - 1e-12);
  gains.push_back(floor - 1e-9);

  const sim::Rng root(31);
  std::uint64_t checked = 0, full = 0, early_angle = 0, early_bound = 0;
  std::uint64_t unsound = 0;
  for (std::uint64_t key = 0; key < 50'000; ++key) {
    const sim::NormalDraw d =
        root.substream(make_frame_id(key % 50, 1 + key / 50), key % 97)
            .normal_draw();
    for (const double gain : gains) {
      ++checked;
      const bool drops = full_drop(cfg, gain, d);
      full += drops;
      if (!d.certainly_below(gain, sigma, floor)) continue;
      unsound += !drops || gain >= floor;
      (d.u2 >= 0.26 && d.u2 <= 0.74 ? early_angle : early_bound) += 1;
    }
  }
  EXPECT_EQ(unsound, 0u);
  // Not vacuous: both exits fire, on a real share of the drops.
  EXPECT_GT(early_angle, full / 4);
  EXPECT_GT(early_bound, full / 20);
  EXPECT_LT(full, checked);
}

// The same implication at the edge of the early exit itself, where it is
// hardest to keep: for a grid of uniforms, find the gain (one floor ulp
// apart) closest to the floor that the exit still drops, and check it and
// the gains just past it. Uniforms near 1 make the radius bound tight, and
// the angles straddle the [0.26, 0.74] range.
TEST(MediumEarlyDrop, EarlyDropHoldsAtItsOwnBoundary) {
  const MediumConfig cfg;
  const double floor = cfg.delivery_floor_dbm;
  const double sigma = cfg.fading_sigma_db;
  const double ulp = floor - std::nextafter(floor, -kInf);
  const auto gain_at = [&](std::int64_t n) {
    return floor - static_cast<double>(n) * ulp;
  };
  // Gains down to the cull floor stay in the floor's binade: exact steps.
  const auto max_n = static_cast<std::int64_t>(
      cfg.cull_guard_sigmas * sigma / ulp);
  ASSERT_EQ(gain_at(max_n) + static_cast<double>(max_n) * ulp, floor);

  std::vector<double> u1s = {0x1.0p-53, 1e-6, 0.01, 0.1, 0.3, 0.5,
                             0.7,       0.9,  0.99, 0.999999};
  for (int k = 1; k <= 600; ++k) u1s.push_back(1.0 - k * 0x1.0p-53);
  for (int k = 1; k <= 64; ++k) u1s.push_back(1.0 - k * 0x1.0p-40);
  const std::vector<double> u2s = {0.0,  0x1.0p-53, 0.1,  0.24, 0.245,
                                   0.25, 0.255,     0.26, 0.5,  0.74,
                                   0.745, 0.75,     0.76, 0.9,  1.0 - 0x1.0p-53};
  std::uint64_t fired = 0, unsound = 0;
  for (const double u1 : u1s) {
    for (const double u2 : u2s) {
      const sim::NormalDraw d{u1, u2};
      const auto early = [&](std::int64_t n) {
        return d.certainly_below(gain_at(n), sigma, floor);
      };
      std::vector<std::int64_t> ns;
      for (std::int64_t n = 1; n <= 70; ++n) ns.push_back(n);  // <= 1e-12 dB
      if (early(max_n)) {
        // Smallest n the exit drops at (it is monotone in the gap).
        std::int64_t lo = 0, hi = max_n;
        while (hi - lo > 1) {
          const std::int64_t mid = lo + (hi - lo) / 2;
          (early(mid) ? hi : lo) = mid;
        }
        for (std::int64_t n = hi; n < hi + 16 && n <= max_n; ++n) {
          ns.push_back(n);
        }
      }
      for (const std::int64_t n : ns) {
        if (!early(n)) continue;
        ++fired;
        unsound += !full_drop(cfg, gain_at(n), d);
      }
    }
  }
  EXPECT_EQ(unsound, 0u);
  EXPECT_GT(fired, 0u);
}

// Both exits count as floor drops: every row candidate of every transmit
// is either a delivery or a floor drop, and the drops are exactly those of
// the full computation over the same (frame, receiver) substreams.
TEST(MediumEarlyDrop, FloorDropsCountExactlyTheFullComputationsDrops) {
  const MediumConfig cfg;
  const sim::Rng fading(5);
  sim::Simulator sim;
  metrics::Registry registry;
  Medium medium(sim, std::make_shared<FriisPropagation>(), cfg, fading);
  medium.set_metrics(&registry);
  std::vector<std::unique_ptr<Radio>> radios;
  for (NodeId id = 1; id <= 40; ++id) {
    // A line across the delivery floor: some links always clear it, some
    // fade across it, some sit in the guard band under it.
    const double x = id == 1 ? 0.0 : 1500.0 + 250.0 * id;
    radios.push_back(std::make_unique<Radio>(sim, medium, id,
                                             Position{x, 0}, RadioConfig{},
                                             nist(), sim::Rng(id)));
  }
  Radio& src = *radios[0];
  const auto row = medium.row(src.id());
  std::uint64_t expected_drops = 0, below_floor = 0;
  for (const auto& link : row) {
    below_floor += link.gain_dbm < cfg.delivery_floor_dbm;
  }
  ASSERT_GT(below_floor, 5u);
  ASSERT_LT(below_floor, row.size());
  const int frames = 300;
  for (int i = 0; i < frames; ++i) {
    sim.at(i * sim::milliseconds(3),
           [&src] { src.transmit(World::whole_frame(200)); });
  }
  sim.run();
  for (int i = 0; i < frames; ++i) {
    const std::uint64_t fid =
        make_frame_id(src.id(), static_cast<std::uint64_t>(i + 1));
    for (const auto& link : row) {
      const NodeId dst = medium.radios()[link.dst]->id();
      const sim::NormalDraw d = fading.substream(fid, dst).normal_draw();
      expected_drops += full_drop(cfg, link.gain_dbm, d);
    }
  }
  EXPECT_EQ(registry.value(metrics::Counter::kPhyFloorDrops), expected_drops);
  EXPECT_EQ(registry.value(metrics::Counter::kPhyFloorDrops) +
                registry.value(metrics::Counter::kPhyDeliveries),
            frames * row.size());
}

// ---- Config validation ----

void build_medium(const MediumConfig& mcfg) {
  sim::Simulator sim;
  Medium medium(sim, std::make_shared<FriisPropagation>(), mcfg, sim::Rng(1));
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(MediumConfigDeathTest, InvalidCullGuardSigmasAbortsNamingTheField) {
  for (const double bad : {-1.0, kInf, kNaN}) {
    MediumConfig mcfg;
    mcfg.cull_guard_sigmas = bad;
    EXPECT_DEATH(build_medium(mcfg), "cull_guard_sigmas") << bad;
  }
}

TEST(MediumConfigDeathTest, InvalidFadingSigmaAbortsNamingTheField) {
  for (const double bad : {-0.5, kInf, kNaN}) {
    MediumConfig mcfg;
    mcfg.fading_sigma_db = bad;
    EXPECT_DEATH(build_medium(mcfg), "fading_sigma_db") << bad;
  }
}

TEST(MediumConfigDeathTest, NonFiniteDeliveryFloorAbortsNamingTheField) {
  for (const double bad : {-kInf, kInf, kNaN}) {
    MediumConfig mcfg;
    mcfg.delivery_floor_dbm = bad;
    EXPECT_DEATH(build_medium(mcfg), "delivery_floor_dbm") << bad;
  }
}

class FadingSigmaSweep : public ::testing::TestWithParam<int> {};

TEST_P(FadingSigmaSweep, WiderFadingWidensOutcomeSpread) {
  // Property: on a marginal link, the spread between per-frame outcomes
  // grows (or at least does not vanish) as fading sigma increases.
  MediumConfig mcfg;
  mcfg.fading_sigma_db = static_cast<double>(GetParam());
  World w(nist(), mcfg);
  Radio& a = w.add_radio(1, {0, 0});
  w.add_radio(2, {330, 0});
  const int frames = 150;
  for (int i = 0; i < frames; ++i) {
    w.simulator().at(i * sim::milliseconds(2),
                     [&] { a.transmit(World::whole_frame(1400)); });
  }
  w.simulator().run();
  const auto& c = w.radio(1).counters();
  if (GetParam() == 0) {
    // Deterministic channel: all frames share one fate modulo the error
    // model's own randomness; just sanity-check accounting.
    EXPECT_EQ(c.locks, c.rx_ok + c.rx_corrupt);
  } else {
    EXPECT_GT(c.locks, 0u);
  }
  EXPECT_LE(c.rx_ok + c.rx_corrupt, static_cast<std::uint64_t>(frames));
}

INSTANTIATE_TEST_SUITE_P(Sigmas, FadingSigmaSweep, ::testing::Values(0, 3, 8));

}  // namespace
}  // namespace cmap::phy

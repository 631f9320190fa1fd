#include "dynamics/mobility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "phy/error_model.h"
#include "phy/medium.h"
#include "phy/propagation.h"
#include "phy/radio.h"
#include "sim/simulator.h"

namespace cmap::dynamics {
namespace {

constexpr double kWidth = 70.0;
constexpr double kHeight = 40.0;

// A bare phy world: N radios scattered on the floor, no MACs, no traffic —
// mobility only needs positions and the medium's cache maintenance.
struct MiniWorld {
  explicit MiniWorld(int n)
      : propagation(std::make_shared<phy::FriisPropagation>()),
        medium(sim, propagation, phy::MediumConfig{}, sim::Rng(11)) {
    auto error = std::make_shared<phy::NistErrorModel>();
    sim::Rng place(42);
    for (int i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<phy::Radio>(
          sim, medium, static_cast<phy::NodeId>(i),
          phy::Position{place.uniform(0.0, kWidth),
                        place.uniform(0.0, kHeight)},
          phy::RadioConfig{}, error, sim::Rng(100 + i)));
    }
  }

  sim::Simulator sim;
  std::shared_ptr<const phy::PropagationModel> propagation;
  phy::Medium medium;
  std::vector<std::unique_ptr<phy::Radio>> radios;
};

MobilityConfig mobility_config(MobilityPattern pattern,
                               double fraction = 1.0) {
  MobilityConfig m;
  m.pattern = pattern;
  m.mobile_fraction = fraction;
  m.width_m = kWidth;
  m.height_m = kHeight;
  m.tick = sim::milliseconds(100);
  m.seed = 5;
  return m;
}

std::vector<phy::Position> positions(const MiniWorld& w) {
  std::vector<phy::Position> out;
  for (const auto& r : w.radios) out.push_back(r->position());
  return out;
}

void expect_in_bounds(const MiniWorld& w) {
  for (const auto& r : w.radios) {
    EXPECT_GE(r->position().x, 0.0);
    EXPECT_LE(r->position().x, kWidth);
    EXPECT_GE(r->position().y, 0.0);
    EXPECT_LE(r->position().y, kHeight);
  }
}

class MobilityPatterns : public ::testing::TestWithParam<MobilityPattern> {};

TEST_P(MobilityPatterns, MovesNodesAndStaysInBounds) {
  MiniWorld w(10);
  const auto before = positions(w);
  MobilityModel model(w.sim, w.medium, mobility_config(GetParam()),
                      sim::Rng(3));
  model.start();
  w.sim.run_until(sim::seconds(20));
  EXPECT_GT(model.moves(), 0u);
  expect_in_bounds(w);
  bool any_moved = false;
  for (std::size_t i = 0; i < w.radios.size(); ++i) {
    const double d = phy::distance(before[i], w.radios[i]->position());
    any_moved = any_moved || d > 0.5;
  }
  EXPECT_TRUE(any_moved);
}

TEST_P(MobilityPatterns, TrajectoriesAreDeterministic) {
  auto run_once = [&] {
    MiniWorld w(8);
    MobilityModel model(w.sim, w.medium, mobility_config(GetParam()),
                        sim::Rng(3));
    model.start();
    w.sim.run_until(sim::seconds(10));
    return positions(w);
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].x, b[i].x);
    EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
  }
}

TEST_P(MobilityPatterns, GainCacheTracksTheMotion) {
  // After an arbitrary amount of motion the cached mean gains must equal
  // fresh propagation-model queries at the final positions — the cache
  // maintenance contract mobility leans on.
  MiniWorld w(12);
  MobilityModel model(w.sim, w.medium, mobility_config(GetParam()),
                      sim::Rng(3));
  model.start();
  w.sim.run_until(sim::seconds(15));
  for (const auto& from : w.radios) {
    for (const auto& to : w.radios) {
      if (from->id() == to->id()) continue;
      const double direct = w.propagation->rx_power_dbm(
          from->config().tx_power_dbm, from->id(), to->id(), from->position(),
          to->position());
      EXPECT_DOUBLE_EQ(w.medium.mean_rx_power_dbm(from->id(), to->id()),
                       direct);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, MobilityPatterns,
                         ::testing::Values(MobilityPattern::kWaypoint,
                                           MobilityPattern::kDrift,
                                           MobilityPattern::kChurn));

TEST(Mobility, MobileFractionLeavesTheRestStationary) {
  MiniWorld w(10);
  const auto before = positions(w);
  MobilityModel model(w.sim, w.medium,
                      mobility_config(MobilityPattern::kWaypoint, 0.5),
                      sim::Rng(3));
  model.start();
  w.sim.run_until(sim::seconds(20));
  EXPECT_EQ(model.mobile_nodes().size(), 5u);
  int stationary = 0;
  for (std::size_t i = 0; i < w.radios.size(); ++i) {
    const phy::NodeId id = w.radios[i]->id();
    const bool mobile =
        std::find(model.mobile_nodes().begin(), model.mobile_nodes().end(),
                  id) != model.mobile_nodes().end();
    const double d = phy::distance(before[i], w.radios[i]->position());
    if (!mobile) {
      EXPECT_DOUBLE_EQ(d, 0.0) << "stationary node " << id << " moved";
      ++stationary;
    }
  }
  EXPECT_EQ(stationary, 5);
}

TEST(Mobility, ChurnDwellsBetweenTeleports) {
  // Teleports are rare events (mean dwell 4 s, 100 ms ticks): far fewer
  // moves than ticks, and each move is a long jump on average.
  MiniWorld w(6);
  MobilityConfig cfg = mobility_config(MobilityPattern::kChurn);
  MobilityModel model(w.sim, w.medium, cfg, sim::Rng(3));
  model.start();
  w.sim.run_until(sim::seconds(20));
  const std::uint64_t ticks = 20u * 10u * 6u;  // 20 s, 10 Hz, 6 nodes
  EXPECT_GT(model.moves(), 0u);
  EXPECT_LT(model.moves(), ticks / 5);
}

}  // namespace
}  // namespace cmap::dynamics

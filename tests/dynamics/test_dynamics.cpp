// End-to-end wiring of the dynamics subsystem through testbed::World: a
// RunConfig carrying a DynamicsConfig must yield a live world whose nodes
// move and whose channel epochs advance while traffic flows.
#include "dynamics/dynamics.h"

#include <gtest/gtest.h>

#include "testbed/experiment.h"
#include "testbed/topology_picker.h"
#include "testbed/testbed.h"

namespace cmap::dynamics {
namespace {

const testbed::Testbed& shared_testbed() {
  static testbed::Testbed tb{testbed::TestbedConfig{}};
  return tb;
}

DynamicsConfig full_dynamics() {
  DynamicsConfig dc;
  MobilityConfig m;
  m.pattern = MobilityPattern::kWaypoint;
  m.mobile_fraction = 1.0;
  m.tick = sim::milliseconds(100);
  dc.mobility = m;
  ChannelConfig ch;
  ch.sigma_db = 2.0;
  ch.epoch = sim::milliseconds(250);
  dc.channel = ch;
  return dc;
}

TEST(WorldDynamics, StaticRunHasNoDynamics) {
  testbed::RunConfig config;
  config.duration = sim::seconds(1);
  config.warmup = sim::milliseconds(250);
  testbed::World world(shared_testbed(), config);
  EXPECT_EQ(world.dynamics(), nullptr);
}

TEST(WorldDynamics, NodesMoveAndEpochsAdvanceDuringARun) {
  testbed::RunConfig config;
  config.duration = sim::seconds(3);
  config.warmup = sim::seconds(1);
  config.dynamics = full_dynamics();
  testbed::World world(shared_testbed(), config);
  world.add_saturated_flow(0, 1);
  world.add_saturated_flow(2, 3);
  const phy::Position start = world.radio(0).position();
  world.run(config.duration);

  ASSERT_NE(world.dynamics(), nullptr);
  ASSERT_NE(world.dynamics()->mobility(), nullptr);
  ASSERT_NE(world.dynamics()->channel(), nullptr);
  EXPECT_GT(world.dynamics()->mobility()->moves(), 0u);
  // 3 s of 250 ms epochs -> 12 steps (the chain stops with the clock).
  EXPECT_GE(world.dynamics()->channel()->epoch(), 10);
  EXPECT_GT(phy::distance(start, world.radio(0).position()), 0.0);
}

TEST(WorldDynamics, MobilityBoundsDefaultToTheTestbedFloor) {
  testbed::RunConfig config;
  config.duration = sim::seconds(5);
  config.warmup = sim::seconds(1);
  config.dynamics = full_dynamics();
  testbed::World world(shared_testbed(), config);
  // config() reports the resolved bounds, not the 0x0 "fill me in" input.
  EXPECT_EQ(world.config().dynamics->mobility->width_m,
            shared_testbed().config().width_m);
  EXPECT_EQ(world.config().dynamics->mobility->height_m,
            shared_testbed().config().height_m);
  world.add_saturated_flow(0, 1);
  world.run(config.duration);
  for (phy::NodeId id : {0u, 1u}) {
    const phy::Position& p = world.radio(id).position();
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, shared_testbed().config().width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, shared_testbed().config().height_m);
  }
}

TEST(WorldDynamics, ReplicatesSeeDifferentChannelRealizations) {
  auto offset_after = [](std::uint64_t seed) {
    testbed::RunConfig config;
    config.duration = sim::seconds(1);
    config.warmup = sim::milliseconds(250);
    config.seed = seed;
    config.dynamics = full_dynamics();
    testbed::World world(shared_testbed(), config);
    world.add_saturated_flow(0, 1);
    world.run(config.duration);
    return world.dynamics()->channel()->offset_db(0, 1);
  };
  EXPECT_NE(offset_after(1), offset_after(2));
}

TEST(WorldDynamics, RelearningOverridesReachTheMac) {
  testbed::RunConfig config;
  config.scheme = testbed::Scheme::kCmap;
  config.duration = sim::seconds(1);
  config.warmup = sim::milliseconds(250);
  config.cmap.defer_entry_ttl = sim::seconds(5);
  config.cmap.ilist_period = sim::milliseconds(500);
  testbed::World world(shared_testbed(), config);
  world.add_saturated_flow(0, 1);
  ASSERT_NE(world.cmap(0), nullptr);
  EXPECT_EQ(world.cmap(0)->config().defer_entry_ttl, sim::seconds(5));
  EXPECT_EQ(world.cmap(0)->config().ilist_period, sim::milliseconds(500));
}

TEST(WorldDynamics, MobileRunExercisesRelearningEndToEnd) {
  // CMAP over a hidden-terminal pair (collisions by construction) on a
  // slowly moving floor with a short TTL and fast ilist cadence: the
  // conflict map must actually be (re)taught during the run — interferer
  // lists broadcast while nodes move.
  testbed::TopologyPicker picker(shared_testbed());
  sim::Rng draw(1);
  const auto pairs = picker.hidden_pairs(1, draw);
  ASSERT_FALSE(pairs.empty());
  const auto& p = pairs[0];

  testbed::RunConfig config;
  config.scheme = testbed::Scheme::kCmap;
  config.duration = sim::seconds(10);
  config.warmup = sim::seconds(2);
  config.cmap.defer_entry_ttl = sim::seconds(4);
  config.cmap.ilist_period = sim::milliseconds(500);
  DynamicsConfig dc = full_dynamics();
  // Gentle drift: the geometry evolves without dissolving the conflict
  // before the receivers have accumulated the evidence to report it.
  dc.mobility->speed_min_mps = 0.2;
  dc.mobility->speed_max_mps = 0.6;
  config.dynamics = dc;
  testbed::World world(shared_testbed(), config);
  world.add_saturated_flow(p.s1, p.r1);
  world.add_saturated_flow(p.s2, p.r2);
  world.run(config.duration);

  std::uint64_t ilists_sent = 0;
  for (phy::NodeId id : {p.s1, p.r1, p.s2, p.r2}) {
    ilists_sent += world.cmap(id)->counters().ilists_sent;
  }
  EXPECT_GT(ilists_sent, 0u);
  EXPECT_GT(world.dynamics()->mobility()->moves(), 0u);
}

}  // namespace
}  // namespace cmap::dynamics

// Node mobility driven by scheduled simulator events. A MobilityModel owns
// the trajectories of a (deterministically chosen) subset of a Medium's
// radios and moves them through Radio::set_position on a fixed tick, which
// is what makes the phy medium's per-move link maintenance (each move
// re-links only the mover's old and new neighborhoods) a live concern
// rather than a construction-time detail.
//
// Patterns:
//   kWaypoint — random waypoint: pick a uniform target and a speed, walk
//       there, pause, repeat. The classic slowly-shifting-geometry model.
//   kDrift    — constant velocity drawn once per node, reflecting off the
//       floor's walls. Smooth, monotone geometry change.
//   kChurn    — nodes dwell in place for an exponential holding time, then
//       teleport to a fresh uniform position — modelling a device leaving
//       and another joining (on/off churn collapsed into one radio). The
//       abrupt changes are what ages conflict-map entries out via TTL.
//
// Trajectories are a pure function of (seed, node, tick): every node draws
// from its own substream, so two runs with the same config see identical
// motion regardless of what else the simulation does.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/medium.h"
#include "phy/types.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace cmap::dynamics {

enum class MobilityPattern { kWaypoint, kDrift, kChurn };

struct MobilityConfig {
  MobilityPattern pattern = MobilityPattern::kWaypoint;
  /// Fraction of the medium's radios that move (chosen by a seeded shuffle
  /// over the sorted id list, so the subset is deterministic).
  double mobile_fraction = 1.0;
  sim::Time tick = sim::milliseconds(200);  // position-update interval
  double speed_min_mps = 0.5;  // waypoint/drift speeds (pedestrian range)
  double speed_max_mps = 2.0;
  sim::Time pause_max = sim::seconds(2);      // waypoint dwell at a target
  sim::Time churn_dwell_mean = sim::seconds(4);  // mean time between jumps
  /// Floor bounds; 0 means the caller fills them in (testbed::World uses
  /// the testbed's floor).
  double width_m = 0.0;
  double height_m = 0.0;
  std::uint64_t seed = 1;  // trajectory realization (mixed with run seed)

  bool operator==(const MobilityConfig&) const = default;
};

class MobilityModel {
 public:
  /// The model moves radios attached to `medium`. Construction is cheap;
  /// the mobile set is resolved lazily at the first tick so radios added
  /// after construction (the World builds its nodes after its Medium) are
  /// candidates too.
  MobilityModel(sim::Simulator& simulator, phy::Medium& medium,
                MobilityConfig config, sim::Rng rng);

  /// Schedule the tick chain (first tick one interval from now).
  void start();

  /// Total Radio::set_position calls issued so far.
  std::uint64_t moves() const { return moves_; }
  /// Ids of the radios this model moves (empty before the first tick).
  const std::vector<phy::NodeId>& mobile_nodes() const { return mobile_; }

 private:
  struct NodeState {
    phy::NodeId id = 0;
    sim::Rng rng;          // per-node substream
    phy::Position target;  // waypoint
    double speed = 0.0;    // waypoint m/s
    sim::Time pause_until = 0;
    double vx = 0.0, vy = 0.0;  // drift m/s
    sim::Time next_jump = 0;    // churn
  };

  void init_states();
  void tick();
  void step_node(NodeState& state, phy::Radio& radio, double dt_s,
                 sim::Time now);
  phy::Position draw_position(sim::Rng& rng) const;

  sim::Simulator& sim_;
  phy::Medium& medium_;
  MobilityConfig config_;
  sim::Rng rng_;
  trace::TraceHook trace_;
  bool initialized_ = false;
  std::vector<phy::NodeId> mobile_;
  std::vector<NodeState> states_;
  std::uint64_t moves_ = 0;
};

}  // namespace cmap::dynamics

// The time-varying-environment subsystem: bundles node mobility (mobility.h)
// and channel evolution (channel.h) behind one config that rides in
// testbed::RunConfig, so any scenario can declare "this floor moves".
// A Dynamics instance belongs to one live World: it owns the MobilityModel,
// schedules the channel's epoch steps, and keeps the Medium's cached link
// rows coherent (each epoch step advances the AR(1) offsets and refreshes
// every cached link; each node move re-links through Radio::set_position).
#pragma once

#include <memory>
#include <optional>

#include "dynamics/channel.h"
#include "dynamics/mobility.h"
#include "metrics/metrics.h"
#include "phy/medium.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace cmap::dynamics {

struct DynamicsConfig {
  std::optional<MobilityConfig> mobility;
  std::optional<ChannelConfig> channel;

  bool operator==(const DynamicsConfig&) const = default;
};

class Dynamics {
 public:
  /// `channel_model` is the DynamicShadowing instance the medium was built
  /// over when config.channel is set (nullptr otherwise); Dynamics advances
  /// its epochs. `rng` seeds the trajectories (derive it from the run seed).
  Dynamics(sim::Simulator& simulator, phy::Medium& medium,
           std::shared_ptr<DynamicShadowing> channel_model,
           DynamicsConfig config, sim::Rng rng);

  /// Schedule the mobility tick chain and the channel epoch chain.
  void start();

  const MobilityModel* mobility() const { return mobility_.get(); }
  const DynamicShadowing* channel() const { return channel_.get(); }

 private:
  void channel_step();

  sim::Simulator& sim_;
  phy::Medium& medium_;
  std::shared_ptr<DynamicShadowing> channel_;
  DynamicsConfig config_;
  std::unique_ptr<MobilityModel> mobility_;
  trace::TraceHook trace_;
  metrics::MetricsHook metrics_;
  std::uint64_t epoch_ = 0;
};

}  // namespace cmap::dynamics

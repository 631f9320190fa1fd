#include "dynamics/dynamics.h"

#include "sim/assert.h"

namespace cmap::dynamics {

Dynamics::Dynamics(sim::Simulator& simulator, phy::Medium& medium,
                   std::shared_ptr<DynamicShadowing> channel_model,
                   DynamicsConfig config, sim::Rng rng)
    : sim_(simulator),
      medium_(medium),
      channel_(std::move(channel_model)),
      config_(config) {
  CMAP_ASSERT(config_.channel.has_value() == (channel_ != nullptr),
              "channel config and DynamicShadowing model must come together");
  trace_.bind(medium_.tracer());
  metrics_.bind(medium_.metrics(), metrics::Domain::kDynamics);
  if (config_.mobility) {
    mobility_ = std::make_unique<MobilityModel>(
        sim_, medium_, *config_.mobility,
        rng.substream(0x30b11e, config_.mobility->seed));
  }
}

void Dynamics::start() {
  if (mobility_) mobility_->start();
  // Global rank: dynamics events mutate shared medium state, so the PDES
  // engine runs them alone at a barrier — and the serial queue sorts them
  // first at their tick to match.
  if (channel_) {
    sim_.in_ranked(config_.channel->epoch, sim::kGlobalRank,
                   [this] { channel_step(); });
  }
}

void Dynamics::channel_step() {
  channel_->advance_epoch();
  ++epoch_;
  metrics_.inc(metrics::Counter::kDynChannelEpochs);
  if (trace_.wants(trace::Category::kChannelEpoch)) {
    trace_.tracer->record(sim_.now(), trace::ChannelEpochRecord{epoch_});
  }
  // Every cached link gain is stale after an epoch step, so the medium
  // refreshes all of its rows; a single node's move only touches the
  // mover's neighborhood (Medium::on_position_changed).
  medium_.refresh_all();
  sim_.in_ranked(config_.channel->epoch, sim::kGlobalRank,
                 [this] { channel_step(); });
}

}  // namespace cmap::dynamics

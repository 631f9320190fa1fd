#include "dynamics/mobility.h"

#include <algorithm>
#include <cmath>

#include "phy/radio.h"
#include "sim/assert.h"

namespace cmap::dynamics {

MobilityModel::MobilityModel(sim::Simulator& simulator, phy::Medium& medium,
                             MobilityConfig config, sim::Rng rng)
    : sim_(simulator), medium_(medium), config_(config), rng_(rng) {
  trace_.bind(medium_.tracer());
  CMAP_ASSERT(config_.tick > 0, "mobility tick must be positive");
  CMAP_ASSERT(config_.width_m > 0.0 && config_.height_m > 0.0,
              "mobility needs floor bounds");
  CMAP_ASSERT(config_.speed_min_mps >= 0.0 &&
                  config_.speed_max_mps >= config_.speed_min_mps,
              "bad mobility speed range");
}

void MobilityModel::start() {
  // Global rank: moves mutate the medium's shared link caches (see
  // Dynamics::start for the barrier contract).
  sim_.in_ranked(config_.tick, sim::kGlobalRank, [this] { tick(); });
}

phy::Position MobilityModel::draw_position(sim::Rng& rng) const {
  return {rng.uniform(0.0, config_.width_m),
          rng.uniform(0.0, config_.height_m)};
}

void MobilityModel::init_states() {
  initialized_ = true;
  // Mobile subset: seeded partial shuffle over the sorted id list, so the
  // chosen set depends only on (ids, fraction, seed) — not attach order.
  std::vector<phy::NodeId> ids;
  ids.reserve(medium_.radios().size());
  for (const phy::Radio* r : medium_.radios()) ids.push_back(r->id());
  std::sort(ids.begin(), ids.end());
  const auto want = static_cast<std::size_t>(std::ceil(
      std::clamp(config_.mobile_fraction, 0.0, 1.0) *
      static_cast<double>(ids.size())));
  sim::Rng pick = rng_.substream(0x5e1ec7, 0);
  for (std::size_t i = 0; i < want && i < ids.size(); ++i) {
    const auto j = static_cast<std::size_t>(
        pick.uniform_int(static_cast<std::int64_t>(i),
                         static_cast<std::int64_t>(ids.size()) - 1));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(std::min(want, ids.size()));
  std::sort(ids.begin(), ids.end());  // tick order independent of the draw
  mobile_ = ids;

  states_.reserve(mobile_.size());
  for (const phy::NodeId id : mobile_) {
    NodeState st;
    st.id = id;
    st.rng = rng_.substream(0x0b17e, id);
    st.target = draw_position(st.rng);
    st.speed = st.rng.uniform(config_.speed_min_mps, config_.speed_max_mps);
    const double angle = st.rng.uniform(0.0, 2.0 * M_PI);
    const double drift_speed =
        st.rng.uniform(config_.speed_min_mps, config_.speed_max_mps);
    st.vx = drift_speed * std::cos(angle);
    st.vy = drift_speed * std::sin(angle);
    st.next_jump =
        sim_.now() +
        sim::seconds(st.rng.exponential(
            sim::to_seconds(config_.churn_dwell_mean)));
    states_.push_back(std::move(st));
  }
}

void MobilityModel::step_node(NodeState& st, phy::Radio& radio, double dt_s,
                              sim::Time now) {
  phy::Position p = radio.position();
  switch (config_.pattern) {
    case MobilityPattern::kWaypoint: {
      if (now < st.pause_until) return;
      const double dx = st.target.x - p.x;
      const double dy = st.target.y - p.y;
      const double dist = std::sqrt(dx * dx + dy * dy);
      const double step = st.speed * dt_s;
      if (dist <= step) {
        p = st.target;
        st.pause_until =
            now + static_cast<sim::Time>(
                      st.rng.uniform(0.0, static_cast<double>(
                                              config_.pause_max)));
        st.target = draw_position(st.rng);
        st.speed =
            st.rng.uniform(config_.speed_min_mps, config_.speed_max_mps);
      } else {
        p.x += dx / dist * step;
        p.y += dy / dist * step;
      }
      break;
    }
    case MobilityPattern::kDrift: {
      p.x += st.vx * dt_s;
      p.y += st.vy * dt_s;
      // Reflect off the walls (at pedestrian speeds one reflection per
      // tick; loop for robustness against large tick * speed products).
      for (int guard = 0; guard < 8; ++guard) {
        bool reflected = false;
        if (p.x < 0.0) { p.x = -p.x; st.vx = -st.vx; reflected = true; }
        if (p.x > config_.width_m) {
          p.x = 2.0 * config_.width_m - p.x;
          st.vx = -st.vx;
          reflected = true;
        }
        if (p.y < 0.0) { p.y = -p.y; st.vy = -st.vy; reflected = true; }
        if (p.y > config_.height_m) {
          p.y = 2.0 * config_.height_m - p.y;
          st.vy = -st.vy;
          reflected = true;
        }
        if (!reflected) break;
      }
      p.x = std::clamp(p.x, 0.0, config_.width_m);
      p.y = std::clamp(p.y, 0.0, config_.height_m);
      break;
    }
    case MobilityPattern::kChurn: {
      if (now < st.next_jump) return;
      p = draw_position(st.rng);
      st.next_jump =
          now + sim::seconds(st.rng.exponential(
                    sim::to_seconds(config_.churn_dwell_mean)));
      break;
    }
  }
  radio.set_position(p);
  ++moves_;
  if (trace_.wants(trace::Category::kMove)) {
    trace_.tracer->record(now, trace::MoveRecord::from_metres(st.id, p.x, p.y));
  }
}

void MobilityModel::tick() {
  if (!initialized_) init_states();
  const double dt_s = sim::to_seconds(config_.tick);
  const sim::Time now = sim_.now();
  // cmap-lint: allow(unordered-iter) -- MobilityModel::states_ is a
  // std::vector (the lint matches the name against DynamicShadowing's
  // unordered states_); vector order is insertion order, deterministic.
  for (NodeState& st : states_) {
    phy::Radio* radio = medium_.radio(st.id);
    CMAP_ASSERT(radio != nullptr, "mobile node has no radio");
    step_node(st, *radio, dt_s, now);
  }
  sim_.in_ranked(config_.tick, sim::kGlobalRank, [this] { tick(); });
}

}  // namespace cmap::dynamics

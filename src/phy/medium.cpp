#include "phy/medium.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "phy/radio.h"
#include "phy/units.h"
#include "sim/assert.h"
#include "sim/pdes.h"

namespace cmap::phy {
namespace {
// The NodeId -> index map is a flat vector sized to the largest attached
// id (O(1) lookup); cap it so a stray sparse id fails loudly instead of
// allocating gigabytes. Matches the net layer's packet-id packing bound
// (traffic.cpp packs src ids into 20 bits). 1M ids = 4 MB worst case.
constexpr phy::NodeId kMaxRadioId = 1u << 20;

// Sorted-vector helpers for the sparse rows (both row kinds are kept
// ascending by destination index).
template <typename Entry>
typename std::vector<Entry>::iterator find_dst(std::vector<Entry>& row,
                                               std::uint32_t dst) {
  return std::lower_bound(
      row.begin(), row.end(), dst,
      [](const Entry& e, std::uint32_t d) { return e.dst < d; });
}

}  // namespace

Medium::Medium(sim::Simulator& simulator,
               std::shared_ptr<const PropagationModel> propagation,
               MediumConfig config, sim::Rng rng)
    : sim_(simulator),
      propagation_(std::move(propagation)),
      config_(config),
      rng_(rng) {
  // A negative guard or sigma would raise the cull floor above the
  // delivery floor and silently drop receivers that clear it.
  constexpr const char* kConfig = "MediumConfig";
  sim::require_valid(std::isfinite(config_.delivery_floor_dbm), kConfig,
                     "delivery_floor_dbm", config_.delivery_floor_dbm);
  sim::require_valid(std::isfinite(config_.fading_sigma_db) &&
                         config_.fading_sigma_db >= 0.0,
                     kConfig, "fading_sigma_db", config_.fading_sigma_db);
  sim::require_valid(std::isfinite(config_.cull_guard_sigmas) &&
                         config_.cull_guard_sigmas >= 0.0,
                     kConfig, "cull_guard_sigmas", config_.cull_guard_sigmas);
  dyn_delta_db_ = propagation_->epoch_delta_bound_db(config_.cull_guard_sigmas);
  track_watch_ = dyn_delta_db_ > 0.0;
}

double Medium::cull_floor_dbm() const {
  return config_.delivery_floor_dbm -
         config_.cull_guard_sigmas * config_.fading_sigma_db;
}

Medium::RowLink Medium::compute_link(std::uint32_t src_idx,
                                     std::uint32_t dst_idx) const {
  // Every propagation-model query is a cache miss by definition: rows
  // exist so that transmit() never lands here.
  metrics_.inc(metrics::Counter::kPhyGainCacheMisses);
  const Radio& src = *radios_[src_idx];
  const Radio& dst = *radios_[dst_idx];
  RowLink link;
  link.dst = dst_idx;
  link.gain_dbm =
      propagation_->rx_power_dbm(src.config().tx_power_dbm, src.id(), dst.id(),
                                 src.position(), dst.position());
  // The one delay formula (phy/partition.h): every delivery over this
  // link starts exactly this long after its transmission.
  link.delay = propagation_delay_ns(distance(src.position(), dst.position()));
  return link;
}

std::uint32_t Medium::index_of(NodeId id) const {
  if (static_cast<std::size_t>(id) >= index_by_id_.size()) return kNoIndex;
  return index_by_id_[id];
}

void Medium::attach(Radio* radio) {
  CMAP_ASSERT(radio != nullptr, "attach null radio");
  CMAP_ASSERT(radio->id() != kBroadcastId, "radio with broadcast id");
  if (radio->id() >= kMaxRadioId) {
    std::fprintf(stderr,
                 "Medium: radio id %u exceeds the %u id cap (ids index a "
                 "flat vector; renumber nodes densely)\n",
                 radio->id(), kMaxRadioId);
    CMAP_ASSERT(false, "radio ids must be small/dense (see stderr for id)");
  }
  if (static_cast<std::size_t>(radio->id()) >= index_by_id_.size()) {
    // Ids need not be contiguous — gaps just cost kNoIndex slots here.
    index_by_id_.resize(radio->id() + 1, kNoIndex);
  }
  if (index_by_id_[radio->id()] != kNoIndex) {
    std::fprintf(stderr, "Medium: duplicate radio id %u\n", radio->id());
    CMAP_ASSERT(false, "duplicate radio id (see stderr for id)");
  }
  const auto idx = static_cast<std::uint32_t>(radios_.size());
  index_by_id_[radio->id()] = idx;
  radios_.push_back(radio);

  ++rows_epoch_;
  ensure_candidate_radius(radio->config().tx_power_dbm);
  if (!grid_) {
    grid_ = std::make_unique<SpatialGrid>(grid_pitch(candidate_radius_m_));
  }
  grid_->insert(idx, radio->position());
  sparse_rows_.emplace_back();
  if (track_watch_) watch_rows_.emplace_back();
  link_neighborhood(idx);
}

double Medium::grid_pitch(double radius_m) {
  // Pitch ~= the candidate radius keeps queries at a 3x3 cell scan; an
  // unbounded radius (model without a range bound) degenerates to full
  // scans where pitch is irrelevant.
  return std::isfinite(radius_m) ? std::clamp(radius_m, 1.0, 1.0e5) : 64.0;
}

std::vector<LiveLink> Medium::row_links_among(std::span<const LiveNode> nodes,
                                              double tx_power_dbm) const {
  const double radius = max_candidate_range_m(
      *propagation_, tx_power_dbm, cull_floor_dbm(), config_.cull_guard_sigmas);
  SpatialGrid grid(grid_pitch(radius));
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    grid.insert(i, nodes[i].position);
  }
  std::vector<LiveLink> links;
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    const LiveNode& from = nodes[i];
    grid.query(from.position, radius, &candidates);
    for (const std::uint32_t j : candidates) {
      if (j == i) continue;
      const LiveNode& to = nodes[j];
      // sparse_classify's rule: a link joins its source's row when its
      // mean gain clears the cull floor.
      if (propagation_->rx_power_dbm(tx_power_dbm, from.id, to.id,
                                     from.position, to.position) >=
          cull_floor_dbm()) {
        links.push_back(LiveLink{i, j});
      }
    }
  }
  return links;
}

void Medium::ensure_candidate_radius(double tx_power_dbm) {
  if (grid_ != nullptr && tx_power_dbm <= max_tx_power_dbm_) return;
  max_tx_power_dbm_ = tx_power_dbm;
  // One shared radius at the strongest attached transmit power: a
  // per-source radius would be tighter, but a superset of candidates only
  // costs gain computations, never correctness.
  candidate_radius_m_ = max_candidate_range_m(
      *propagation_, max_tx_power_dbm_, cull_floor_dbm(),
      config_.cull_guard_sigmas);
}

void Medium::link_neighborhood(std::uint32_t idx) {
  grid_->query(radios_[idx]->position(), candidate_radius_m_, &scratch_);
  for (const std::uint32_t j : scratch_) {
    if (j == idx) continue;
    sparse_classify(idx, compute_link(idx, j));
    sparse_classify(j, compute_link(j, idx));
  }
}

void Medium::sparse_classify(std::uint32_t src, const RowLink& link) {
  if (link.gain_dbm >= cull_floor_dbm()) {
    auto& row = sparse_rows_[src];
    const auto it = find_dst(row, link.dst);
    CMAP_ASSERT(it == row.end() || it->dst != link.dst,
                "duplicate sparse link");
    row.insert(it, link);
  } else if (track_watch_) {
    auto& row = watch_rows_[src];
    const auto it = find_dst(row, link.dst);
    CMAP_ASSERT(it == row.end() || it->dst != link.dst,
                "duplicate watch entry");
    row.insert(it, WatchEntry{link.dst, link.gain_dbm, channel_epoch_});
  }
}

void Medium::sparse_erase(std::uint32_t src, std::uint32_t dst) {
  auto& row = sparse_rows_[src];
  const auto it = find_dst(row, dst);
  if (it != row.end() && it->dst == dst) {
    row.erase(it);
    return;
  }
  if (!track_watch_) return;
  auto& watch = watch_rows_[src];
  const auto wit = find_dst(watch, dst);
  if (wit != watch.end() && wit->dst == dst) watch.erase(wit);
}

void Medium::refresh_all() {
  metrics_dyn_.inc(metrics::Counter::kDynFullRefreshes);
  ++channel_epoch_;
  ++rows_epoch_;
  const double floor = cull_floor_dbm();
  std::vector<RowLink> new_active;
  std::vector<WatchEntry> new_watch;
  for (std::uint32_t i = 0; i < radios_.size(); ++i) {
    auto& active = sparse_rows_[i];
    if (!track_watch_) {
      // Static model: gains cannot have moved, but honor refresh_all's
      // "reconcile with current answers" contract on what is materialized.
      for (auto& e : active) e = compute_link(i, e.dst);
      continue;
    }
    auto& watch = watch_rows_[i];
    new_active.clear();
    new_watch.clear();
    new_active.reserve(active.size());
    new_watch.reserve(watch.size());
    const auto classify = [&](std::uint32_t dst) {
      const RowLink link = compute_link(i, dst);
      if (link.gain_dbm >= floor) {
        new_active.push_back(link);
      } else {
        new_watch.push_back(WatchEntry{dst, link.gain_dbm, channel_epoch_});
      }
    };
    // Merge the two dst-sorted rows: active links are always recomputed
    // (their gains back every delivery), watched links only when the
    // accumulated per-epoch delta bound says the floor is reachable.
    std::size_t a = 0, w = 0;
    while (a < active.size() || w < watch.size()) {
      const bool take_active =
          w >= watch.size() ||
          (a < active.size() && active[a].dst < watch[w].dst);
      if (take_active) {
        classify(active[a++].dst);
      } else {
        const WatchEntry& entry = watch[w++];
        const double budget =
            dyn_delta_db_ *
            static_cast<double>(channel_epoch_ - entry.checked_epoch);
        if (floor - entry.gain_dbm <= budget) {
          metrics_.inc(metrics::Counter::kPhyWatchRechecks);
          classify(entry.dst);
        } else {
          new_watch.push_back(entry);
        }
      }
    }
    active.swap(new_active);
    watch.swap(new_watch);
  }
}

void Medium::on_position_changed(Radio& radio) {
  ++rows_epoch_;
  metrics_dyn_.inc(metrics::Counter::kDynMoves);
  const std::uint32_t idx = index_of(radio.id());
  CMAP_ASSERT(idx != kNoIndex, "position change for unattached radio");
  metrics_dyn_.inc(metrics::Counter::kDynIncrementalInvalidations);
  // Every source holding a link (or watch entry) for the mover computed it
  // while both endpoints sat at their current positions, so it lies within
  // the candidate radius of the mover's OLD position — which the grid
  // remembers. Strip those, re-bucket, then rebuild both directions around
  // the new position.
  grid_->query(grid_->position(idx), candidate_radius_m_, &scratch_);
  for (const std::uint32_t j : scratch_) {
    if (j != idx) sparse_erase(j, idx);
  }
  grid_->move(idx, radio.position());
  sparse_rows_[idx].clear();
  if (track_watch_) watch_rows_[idx].clear();
  link_neighborhood(idx);
}

Radio* Medium::radio(NodeId id) const {
  const std::uint32_t idx = index_of(id);
  return idx == kNoIndex ? nullptr : radios_[idx];
}

std::span<const Medium::RowLink> Medium::row(NodeId source) const {
  const std::uint32_t idx = index_of(source);
  CMAP_ASSERT(idx != kNoIndex, "unknown radio id");
  return sparse_rows_[idx];
}

std::size_t Medium::watch_entries() const {
  std::size_t total = 0;
  for (const auto& row : watch_rows_) total += row.size();
  return total;
}

double Medium::mean_rx_power_dbm(NodeId from, NodeId to) const {
  const Radio* src = radio(from);
  const Radio* dst = radio(to);
  CMAP_ASSERT(src != nullptr && dst != nullptr, "unknown radio id");
  if (from != to) {
    const auto& row = sparse_rows_[index_of(from)];
    const std::uint32_t di = index_of(to);
    const auto it = std::lower_bound(
        row.begin(), row.end(), di,
        [](const RowLink& e, std::uint32_t d) { return e.dst < d; });
    if (it != row.end() && it->dst == di) return it->gain_dbm;
    // Not in the row (below the cull floor): ask the model directly.
  }
  return propagation_->rx_power_dbm(src->config().tx_power_dbm, from, to,
                                    src->position(), dst->position());
}

void Medium::deliver_one(Radio& target, const RowLink& link,
                         const std::shared_ptr<const Frame>& frame,
                         sim::Time now) {
  double power_dbm = link.gain_dbm;
  if (config_.fading_sigma_db > 0.0) {
    // Keyed on (frame, receiver) so the draw is independent of how many
    // other receivers were considered — the property that lets culling
    // leave every surviving delivery bit-identical. The fade is the first
    // normal() of that substream; a below-floor link is often dropped on
    // its uniforms alone (docs/link_state.md, "Early floor drops").
    const sim::NormalDraw fade =
        rng_.substream(frame->id, target.id()).normal_draw();
    if (fade.certainly_below(link.gain_dbm, config_.fading_sigma_db,
                             config_.delivery_floor_dbm)) {
      metrics_.inc(metrics::Counter::kPhyFloorDrops);
      return;
    }
    power_dbm += config_.fading_sigma_db * fade.value();
  }
  if (power_dbm < config_.delivery_floor_dbm) {
    metrics_.inc(metrics::Counter::kPhyFloorDrops);
    return;
  }
  metrics_.inc(metrics::Counter::kPhyDeliveries);

  const double power_mw = dbm_to_mw(power_dbm);
  const sim::Time start = now + link.delay;
  const int src_part = partition_of(frame->tx_node);
  const int dst_part = partition_of(target.id());
  // An inert arrival (phy/radio.h) goes straight into the receiver's
  // tracker. Only within one partition: this thread owns that tracker.
  if (src_part == dst_part && target.inert_arrival(power_mw, start)) {
    target.add_interference(
        Signal{frame->id, power_mw, start, start + frame->duration});
    return;
  }
  // Ranked on (frame id, receiver id) — both intrinsic to the delivery —
  // so same-tick arrivals order identically whether this run is serial or
  // partitioned, and whichever route (direct or mailbox) a PDES delivery
  // takes.
  auto arrive = [r = &target, frame, power_mw, start]() mutable {
    r->deliver(std::move(frame), power_mw, start);
  };
  if (engine_ == nullptr) {
    sim_.at_ranked(start, sim::delivery_rank(frame->id, target.id()),
                   std::move(arrive));
    return;
  }
  engine_->schedule_delivery(src_part, dst_part, start, frame->id,
                             target.id(), std::move(arrive));
}

void Medium::transmit(Radio& source, std::shared_ptr<const Frame> frame) {
  // The transmit instant is the *source's* clock: under PDES each radio
  // lives on its partition's simulator, and the medium's own handle is the
  // global sequencer whose clock lags inside a parallel window.
  const sim::Time now = source.simulator().now();
  const std::uint32_t si = index_of(source.id());
  CMAP_ASSERT(si != kNoIndex, "transmit from unattached radio");
  const std::vector<RowLink>& links = sparse_rows_[si];
  if (metrics_.on()) {
    // The row serves the whole fan-out; everyone outside it was culled.
    metrics_.inc(metrics::Counter::kPhyTransmits);
    metrics_.add(metrics::Counter::kPhyGainCacheHits, links.size());
    metrics_.add(metrics::Counter::kPhyCulledReceivers,
                 radios_.size() - 1 - links.size());
  }
  // Rows are dst-index-sorted: deliveries land in attach order.
  for (const RowLink& e : links) deliver_one(*radios_[e.dst], e, frame, now);
}

}  // namespace cmap::phy

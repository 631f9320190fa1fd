#include "testbed/testbed.h"

#include <algorithm>
#include <cmath>

#include "phy/units.h"
#include "sim/assert.h"

namespace cmap::testbed {

LinkMeasurementSpec TestbedConfig::measurement_spec() const {
  LinkMeasurementSpec spec;
  spec.radio = radio;
  spec.fading_sigma_db = medium.fading_sigma_db;
  spec.delivery_floor_dbm = medium.delivery_floor_dbm;
  spec.probe_rate = probe_rate;
  spec.probe_bytes = probe_bytes;
  spec.seed = seed;
  spec.config = measurement;
  return spec;
}

Testbed::Testbed(TestbedConfig config) : config_(config) {
  constexpr const char* kConfig = "TestbedConfig";
  sim::require_valid(config_.num_nodes >= 1, kConfig, "num_nodes",
                     config_.num_nodes);
  sim::require_valid(std::isfinite(config_.width_m) && config_.width_m > 0.0,
                     kConfig, "width_m", config_.width_m);
  sim::require_valid(std::isfinite(config_.height_m) && config_.height_m > 0.0,
                     kConfig, "height_m", config_.height_m);
  config_.prop.seed = config_.seed;
  propagation_ = std::make_shared<phy::LogDistanceShadowing>(config_.prop);
  error_model_ = std::make_shared<phy::NistErrorModel>();

  // Scatter nodes uniformly over the floor, with a minimum separation so
  // no two "machines sit in the same rack". The separation check is
  // grid-hashed (cells of min_sep; a conflict can only sit in the 3x3
  // neighborhood), replacing an O(n) scan per candidate — same candidate
  // stream, same accept/reject decisions, byte-identical placements.
  sim::Rng rng(config_.seed);
  sim::Rng place = rng.substream(0x91ace, 0);
  const double min_sep = 2.0;
  const int grid_w = std::max(
      1, static_cast<int>(std::ceil(config_.width_m / min_sep)));
  const int grid_h = std::max(
      1, static_cast<int>(std::ceil(config_.height_m / min_sep)));
  std::vector<std::vector<std::uint32_t>> cells(
      static_cast<std::size_t>(grid_w) * static_cast<std::size_t>(grid_h));
  const auto cell_of = [&](const phy::Position& p) {
    const int cx = std::min(grid_w - 1, static_cast<int>(p.x / min_sep));
    const int cy = std::min(grid_h - 1, static_cast<int>(p.y / min_sep));
    return std::pair<int, int>{cx, cy};
  };
  // Over-dense floors used to spin forever here; bound the consecutive
  // rejections and fail with a clear error instead. The bound is generous:
  // a feasible configuration rejecting this many times in a row has
  // probability ~0.
  const long max_consecutive_rejects = 1000L * config_.num_nodes + 100000L;
  long rejects = 0;
  positions_.reserve(config_.num_nodes);
  while (positions_.size() < static_cast<std::size_t>(config_.num_nodes)) {
    phy::Position p{place.uniform(0.0, config_.width_m),
                    place.uniform(0.0, config_.height_m)};
    const auto [cx, cy] = cell_of(p);
    bool ok = true;
    for (int dy = -1; dy <= 1 && ok; ++dy) {
      for (int dx = -1; dx <= 1 && ok; ++dx) {
        const int nx = cx + dx, ny = cy + dy;
        if (nx < 0 || nx >= grid_w || ny < 0 || ny >= grid_h) continue;
        for (const std::uint32_t i :
             cells[static_cast<std::size_t>(ny) * grid_w + nx]) {
          if (phy::distance(p, positions_[i]) < min_sep) {
            ok = false;
            break;
          }
        }
      }
    }
    if (ok) {
      cells[static_cast<std::size_t>(cy) * grid_w + cx].push_back(
          static_cast<std::uint32_t>(positions_.size()));
      positions_.push_back(p);
      rejects = 0;
    } else if (++rejects > max_consecutive_rejects) {
      std::fprintf(stderr,
                   "Testbed: cannot place %d nodes with min separation "
                   "%.1f m on a %.1f x %.1f m floor (placed %zu; floor too "
                   "dense)\n",
                   config_.num_nodes, min_sep, config_.width_m,
                   config_.height_m, positions_.size());
      CMAP_ASSERT(false, "testbed floor too dense for num_nodes / min_sep");
    }
  }

  // Measurement pass: PRR and signal strength per connected directed
  // pair, delegated to the LinkMeasurement subsystem, which stays behind
  // to answer off-CSR pair queries.
  lazy_ = std::make_unique<LinkMeasurement>(config_.measurement_spec(),
                                            propagation_, error_model_);
  LinkMeasurementResult result = lazy_->measure(positions_);
  connected_signals_ = std::move(result.connected_signals);
  p10_ = result.p10;
  p90_ = result.p90;
  row_begin_ = std::move(result.row_begin);
  link_dst_ = std::move(result.dst);
  link_prr_ = std::move(result.prr);
  link_signal_ = std::move(result.signal);

  // Precompute the potential-link list the topology pickers iterate, and
  // its CSR view, straight from the stored rows: a potential link needs
  // signal >= p10 >= the delivery floor both ways, so an unstored reverse
  // pair can never qualify.
  const auto n = static_cast<phy::NodeId>(config_.num_nodes);
  pot_begin_.reserve(n + 1);
  pot_begin_.push_back(0);
  for (phy::NodeId a = 0; a < n; ++a) {
    for (std::uint32_t k = row_begin_[a]; k < row_begin_[a + 1]; ++k) {
      const phy::NodeId b = link_dst_[k];
      if (stored_clears(k, 0.9, p10_) &&
          stored_clears(stored_index(b, a), 0.9, p10_)) {
        potential_links_.emplace_back(a, b);
        pot_dst_.push_back(b);
      }
    }
    pot_begin_.push_back(static_cast<std::uint32_t>(pot_dst_.size()));
  }
}

std::ptrdiff_t Testbed::stored_index(phy::NodeId from, phy::NodeId to) const {
  const auto n = static_cast<phy::NodeId>(config_.num_nodes);
  CMAP_ASSERT(from < n && to < n, "node id out of range");
  const auto* lo = link_dst_.data() + row_begin_[from];
  const auto* hi = link_dst_.data() + row_begin_[from + 1];
  const auto* it = std::lower_bound(lo, hi, to);
  if (it == hi || *it != to) return -1;
  return it - link_dst_.data();
}

bool Testbed::stored_clears(std::ptrdiff_t k, double min_prr,
                            double min_signal_dbm) const {
  if (k < 0) return false;
  const auto i = static_cast<std::size_t>(k);
  return link_prr_[i] > min_prr && link_signal_[i] >= min_signal_dbm;
}

std::pair<double, double> Testbed::link_values(phy::NodeId from,
                                               phy::NodeId to) const {
  const std::ptrdiff_t idx = stored_index(from, to);
  if (idx >= 0) {
    return {link_prr_[static_cast<std::size_t>(idx)],
            link_signal_[static_cast<std::size_t>(idx)]};
  }
  // Off-CSR pair: measure it exactly once and memoize.
  // The testbed is shared const across sweep threads, hence the lock; the
  // computation itself is read-only and cheap (one propagation query plus
  // a table interpolation), so holding the lock across it is fine.
  const std::uint64_t key =
      static_cast<std::uint64_t>(from) << 32 | static_cast<std::uint64_t>(to);
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const auto it = memo_.find(key);
  if (it != memo_.end()) return it->second;
  const auto values =
      lazy_->measure_one(from, to, positions_[from], positions_[to]);
  memo_.emplace(key, values);
  return values;
}

double Testbed::prr(phy::NodeId from, phy::NodeId to) const {
  CMAP_ASSERT(from != to, "self link");
  return link_values(from, to).first;
}

double Testbed::signal_dbm(phy::NodeId from, phy::NodeId to) const {
  CMAP_ASSERT(from != to, "self link");
  return link_values(from, to).second;
}

double Testbed::signal_percentile(double p) const {
  CMAP_ASSERT(!connected_signals_.empty(), "no connected links");
  return percentile_of(connected_signals_, p);
}

// The predicates read the CSR alone: each needs signal >= p10 (or p90),
// both at or above the delivery floor, which no unstored pair reaches.
bool Testbed::in_range(phy::NodeId a, phy::NodeId b) const {
  return stored_clears(stored_index(a, b), 0.2, p10_) &&
         stored_clears(stored_index(b, a), 0.2, p10_);
}

bool Testbed::potential_link(phy::NodeId a, phy::NodeId b) const {
  return stored_clears(stored_index(a, b), 0.9, p10_) &&
         stored_clears(stored_index(b, a), 0.9, p10_);
}

bool Testbed::strong_signal(phy::NodeId from, phy::NodeId to) const {
  const std::ptrdiff_t k = stored_index(from, to);
  return k >= 0 && link_signal_[static_cast<std::size_t>(k)] >= p90_;
}

Testbed::LinkClasses Testbed::link_classes() const {
  LinkClasses out;
  int dead = 0, mid = 0, perfect = 0;
  const auto classify = [&](double p) {
    ++out.connected_pairs;
    if (p < 0.1) {
      ++dead;
    } else if (p < 0.95) {
      ++mid;
    } else {
      ++perfect;
    }
  };
  // The CSR holds exactly the connected directed pairs.
  for (const double p : link_prr_) classify(p);
  if (out.connected_pairs > 0) {
    const double total = out.connected_pairs;
    out.frac_dead = dead / total;
    out.frac_mid = mid / total;
    out.frac_perfect = perfect / total;
  }
  return out;
}

double Testbed::mean_degree() const {
  const int n = config_.num_nodes;
  // A PRR > 0.1 link needs signal well above the delivery floor (the
  // preamble gate), so every counting pair sits in the CSR. A node sees
  // a neighbor through its own row when either direction is stored
  // there; when the reverse row is entirely missing (signal below the
  // floor one way), the stored side credits the other node directly.
  std::vector<int> deg(static_cast<std::size_t>(n), 0);
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(n); ++i) {
    for (std::uint32_t k = row_begin_[i]; k < row_begin_[i + 1]; ++k) {
      const phy::NodeId j = link_dst_[k];
      const bool fwd = link_prr_[k] > 0.1;
      const std::ptrdiff_t r = stored_index(j, i);
      const bool rev = r >= 0 && link_prr_[static_cast<std::size_t>(r)] > 0.1;
      if (fwd || rev) ++deg[i];
      if (fwd && r < 0) ++deg[j];
    }
  }
  double total = 0;
  for (const int d : deg) total += d;
  return total / n;
}

std::shared_ptr<const Testbed> TestbedCache::get(const TestbedConfig& config) {
  // The thread knob is result-invariant (measurement.h guarantees it), so
  // it must not fragment the cache; everything else changes the built
  // testbed and stays in the key.
  TestbedConfig key = config;
  key.measurement.threads = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [k, tb] : entries_) {
      if (k == key) return tb;
    }
  }
  // Build outside the lock so hits and other configs are never serialized
  // behind a measurement pass. Concurrent misses on one config may build
  // twice; the first insert wins and every caller gets that instance.
  auto built = std::make_shared<const Testbed>(config);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [k, tb] : entries_) {
    if (k == key) return tb;
  }
  entries_.emplace_back(std::move(key), built);
  return built;
}

std::size_t TestbedCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void TestbedCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

TestbedCache& TestbedCache::global() {
  // cmap-lint: allow(mutable-static) -- memo keyed by the full testbed
  // config; every access goes through its internal mutex, and a cache
  // hit returns the same immutable Testbed a miss would build.
  static TestbedCache cache;
  return cache;
}

}  // namespace cmap::testbed

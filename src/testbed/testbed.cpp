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

  // Measurement pass: PRR and signal strength per directed pair, delegated
  // to the LinkMeasurement subsystem.
  auto measurement = std::make_unique<LinkMeasurement>(
      config_.measurement_spec(), propagation_, error_model_);
  LinkMeasurementResult result = measurement->measure(positions_);
  connected_signals_ = std::move(result.connected_signals);
  p10_ = result.p10;
  p90_ = result.p90;
  if (config_.measurement.store == MeasurementStore::kSparse) {
    row_begin_ = std::move(result.row_begin);
    link_dst_ = std::move(result.dst);
    link_prr_ = std::move(result.sparse_prr);
    link_signal_ = std::move(result.sparse_signal);
    lazy_ = std::move(measurement);  // answers off-CSR pair queries
  } else {
    prr_ = std::move(result.prr);
    signal_ = std::move(result.signal);
  }

  // Precompute the potential-link list the topology pickers iterate; the
  // predicate inputs above are final from here on. The sparse store walks
  // only connected rows — a pair needs PRR > 0.9 both ways, so any
  // potential link is stored in both directions.
  const auto n = static_cast<phy::NodeId>(config_.num_nodes);
  if (sparse()) {
    for (phy::NodeId a = 0; a < n; ++a) {
      for (const phy::NodeId b : connected_neighbors(a)) {
        if (potential_link(a, b)) potential_links_.emplace_back(a, b);
      }
    }
  } else {
    for (phy::NodeId a = 0; a < n; ++a) {
      for (phy::NodeId b = 0; b < n; ++b) {
        if (a != b && potential_link(a, b)) potential_links_.emplace_back(a, b);
      }
    }
  }
  build_neighbor_csrs();
}

void Testbed::build_neighbor_csrs() {
  const auto n = static_cast<std::size_t>(config_.num_nodes);
  // potential_links_ is (from, to)-lexicographic, so the CSR is a direct
  // transcription.
  pot_begin_.assign(n + 1, 0);
  pot_dst_.reserve(potential_links_.size());
  for (const auto& [a, b] : potential_links_) {
    ++pot_begin_[a + 1];
    pot_dst_.push_back(b);
  }
  for (std::size_t i = 0; i < n; ++i) pot_begin_[i + 1] += pot_begin_[i];
  if (sparse()) return;  // connected rows are the stored CSR itself
  conn_begin_.assign(n + 1, 0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b && signal_[a * n + b] >= config_.medium.delivery_floor_dbm) {
        conn_dst_.push_back(static_cast<phy::NodeId>(b));
      }
    }
    conn_begin_[a + 1] = static_cast<std::uint32_t>(conn_dst_.size());
  }
}

std::ptrdiff_t Testbed::stored_index(phy::NodeId from, phy::NodeId to) const {
  const auto* lo = link_dst_.data() + row_begin_[from];
  const auto* hi = link_dst_.data() + row_begin_[from + 1];
  const auto* it = std::lower_bound(lo, hi, to);
  if (it == hi || *it != to) return -1;
  return it - link_dst_.data();
}

std::pair<double, double> Testbed::link_values(phy::NodeId from,
                                               phy::NodeId to) const {
  const std::ptrdiff_t idx = stored_index(from, to);
  if (idx >= 0) {
    return {link_prr_[static_cast<std::size_t>(idx)],
            link_signal_[static_cast<std::size_t>(idx)]};
  }
  // Off-CSR pair: compute the exact dense-store values once and memoize.
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
  if (sparse()) return link_values(from, to).first;
  return prr_[from * config_.num_nodes + to];
}

double Testbed::signal_dbm(phy::NodeId from, phy::NodeId to) const {
  CMAP_ASSERT(from != to, "self link");
  if (sparse()) return link_values(from, to).second;
  return signal_[from * config_.num_nodes + to];
}

double Testbed::signal_percentile(double p) const {
  CMAP_ASSERT(!connected_signals_.empty(), "no connected links");
  return percentile_of(connected_signals_, p);
}

bool Testbed::in_range(phy::NodeId a, phy::NodeId b) const {
  return prr(a, b) > 0.2 && prr(b, a) > 0.2 && signal_dbm(a, b) >= p10_ &&
         signal_dbm(b, a) >= p10_;
}

bool Testbed::potential_link(phy::NodeId a, phy::NodeId b) const {
  return prr(a, b) > 0.9 && prr(b, a) > 0.9 && signal_dbm(a, b) >= p10_ &&
         signal_dbm(b, a) >= p10_;
}

bool Testbed::strong_signal(phy::NodeId from, phy::NodeId to) const {
  return signal_dbm(from, to) >= p90_;
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
  if (sparse()) {
    // The CSR holds exactly the connected directed pairs.
    for (const double p : link_prr_) classify(p);
  } else {
    const int n = config_.num_nodes;
    for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(n); ++i) {
      for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(n); ++j) {
        if (i == j) continue;
        if (signal_[i * n + j] < config_.medium.delivery_floor_dbm) continue;
        classify(prr_[i * n + j]);
      }
    }
  }
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
  double total = 0;
  if (sparse()) {
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
    for (const int d : deg) total += d;
    return total / n;
  }
  for (phy::NodeId i = 0; i < static_cast<phy::NodeId>(n); ++i) {
    int deg = 0;
    for (phy::NodeId j = 0; j < static_cast<phy::NodeId>(n); ++j) {
      if (i == j) continue;
      if (prr_[i * n + j] > 0.1 || prr_[j * n + i] > 0.1) ++deg;
    }
    total += deg;
  }
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

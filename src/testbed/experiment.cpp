#include "testbed/experiment.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <type_traits>

#include "sim/assert.h"

namespace cmap::testbed {
namespace {

/// Monotonic nanoseconds for the PDES execution profile. Values land only
/// in the metrics snapshot's execution section — simulation logic never
/// observes them, so determinism is untouched.
std::int64_t profile_clock_ns() {
  // cmap-lint: allow(banned-wallclock) -- PDES execution-profile timing; feeds only the non-deterministic execution section
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

std::uint64_t elapsed_ns(std::int64_t since) {
  const std::int64_t dt = profile_clock_ns() - since;
  return static_cast<std::uint64_t>(dt > 0 ? dt : 0);
}

constexpr std::size_t log2_bin(std::uint64_t span) {
  return span <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(span)) - 1;
}

// Per-run channel wrapper over the testbed's (shared, static) propagation.
// Seeded from both the channel config's seed and the run seed so
// replicates see independent channel realizations.
std::shared_ptr<dynamics::DynamicShadowing> make_channel(
    const Testbed& tb, const RunConfig& config) {
  if (!config.dynamics || !config.dynamics->channel) return nullptr;
  dynamics::ChannelConfig cc = *config.dynamics->channel;
  cc.seed = sim::mix64(cc.seed ^ sim::mix64(config.seed));
  return std::make_shared<dynamics::DynamicShadowing>(tb.propagation(), cc);
}

// Validate `config`, then overlay the fields each scheme fixes (listed here
// and nowhere else) onto its MAC config and `radio`. A fixed field the
// caller moved off its struct default aborts naming it: a row labelled
// "CMAP,win=1" must run a window of one. Returns every node's radio config.
phy::RadioConfig resolve(RunConfig& config, phy::RadioConfig radio) {
  using core::CmapConfig;
  using mac80211::DcfConfig;
  sim::require_valid(config.duration > 0, "RunConfig", "duration",
                     static_cast<double>(config.duration));
  sim::require_valid(config.warmup >= 0 && config.warmup <= config.duration,
                     "RunConfig", "warmup", static_cast<double>(config.warmup));
  sim::require_valid(config.packet_bytes >= 1, "RunConfig", "packet_bytes",
                     static_cast<double>(config.packet_bytes));
  sim::require_valid(config.pdes.partitions >= 1, "PdesOptions", "partitions",
                     config.pdes.partitions);
  sim::require_valid(config.pdes.threads >= 1, "PdesOptions", "threads",
                     config.pdes.threads);
  const Scheme s = config.scheme;
  const std::string why = std::string("fixed by scheme ") + scheme_name(s);
  const auto fix = [&why](auto& into, auto field, auto value,
                          const char* name) {
    using Config = std::remove_reference_t<decltype(into)>;
    const auto set = into.*field;
    sim::require_valid(
        set == Config{}.*field,
        std::is_same_v<Config, phy::RadioConfig> ? "RadioConfig" : "RunConfig",
        name, static_cast<double>(static_cast<long long>(set)), why.c_str());
    into.*field = value;
  };
  // Integrated salvage (PPR) is a radio capability of that scheme.
  fix(radio, &phy::RadioConfig::salvage_enabled, s == Scheme::kCmapIntegrated,
      "salvage_enabled");
  if (!scheme_is_cmap(s)) {
    fix(config.dcf, &DcfConfig::carrier_sense, s == Scheme::kCsma,
        "dcf.carrier_sense");
    fix(config.dcf, &DcfConfig::acks, s != Scheme::kCsmaOffNoAcks, "dcf.acks");
    mac80211::validate(config.dcf);
    return radio;
  }
  CmapConfig& c = config.cmap;
  const CmapConfig ppr = CmapConfig::integrated_defaults();
  if (s == Scheme::kCmapIntegrated) {
    fix(c, &CmapConfig::nvpkt, ppr.nvpkt, "cmap.nvpkt");
    fix(c, &CmapConfig::t_ackwait, ppr.t_ackwait, "cmap.t_ackwait");
    fix(c, &CmapConfig::t_deferwait, ppr.t_deferwait, "cmap.t_deferwait");
    fix(c, &CmapConfig::cw_start, ppr.cw_start, "cmap.cw_start");
    fix(c, &CmapConfig::cw_max, ppr.cw_max, "cmap.cw_max");
  }
  if (s == Scheme::kCmapWin1) {
    fix(c, &CmapConfig::nwindow_vps, 1, "cmap.nwindow_vps");
  }
  fix(c, &CmapConfig::mode,
      s == Scheme::kCmapIntegrated ? ppr.mode : core::PhyMode::kShim,
      "cmap.mode");
  core::validate(c);
  return radio;
}

}  // namespace

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kCsma:
      return "CS,acks";
    case Scheme::kCsmaOffAcks:
      return "CSoff,acks";
    case Scheme::kCsmaOffNoAcks:
      return "CSoff,noacks";
    case Scheme::kCmap:
      return "CMAP";
    case Scheme::kCmapWin1:
      return "CMAP,win=1";
    case Scheme::kCmapIntegrated:
      return "CMAP,integrated";
  }
  return "?";
}

bool scheme_is_cmap(Scheme scheme) {
  return scheme == Scheme::kCmap || scheme == Scheme::kCmapWin1 ||
         scheme == Scheme::kCmapIntegrated;
}

World::World(const Testbed& tb, const RunConfig& config)
    : tb_(tb),
      config_(config),
      rng_(config.seed),
      channel_(make_channel(tb, config)),
      medium_(channel_ ? std::shared_ptr<const phy::PropagationModel>(channel_)
                       : tb.propagation(),
              tb.config().medium, sim::Rng(config.seed).substream(0xbead, 0)) {
  radio_config_ = resolve(config_, tb_.config().radio);
  // The tracer must be bound into the medium before any radio, MAC, or
  // dynamics hook binds (each caches the tracer pointer at construction).
  if (config_.trace && !config_.trace->path.empty()) {
    tracer_ = std::make_unique<trace::Tracer>(*config_.trace);
    medium_.set_tracer(tracer_.get());
  }
  // Same discipline for the metrics registry: bound before any hook
  // caches it.
  if (config_.metrics) {
    registry_ = std::make_unique<metrics::Registry>(config_.metrics->domains);
    medium_.set_metrics(registry_.get());
  }
  // Moves and channel epochs can join two components, so a world with
  // dynamics runs serially.
  if (config_.pdes.partitions > 1 && !config_.dynamics) {
    // The plan itself waits for the live nodes (build_requested).
    built_ = false;
    plan_.count =
        std::min(config_.pdes.partitions, std::max(tb_.size(), 1));
    for (int p = 0; p < plan_.count; ++p) {
      part_sims_.push_back(std::make_unique<sim::Simulator>());
    }
    busy_ns_.assign(part_sims_.size(), 0);
    team_ = std::make_unique<sim::ThreadTeam>(
        std::min(config_.pdes.threads, plan_.count));
    medium_.set_plan(&plan_);
    if (tracer_ != nullptr) {
      std::vector<trace::Tracer*> tracers;
      for (int p = 0; p < plan_.count; ++p) {
        trace::TraceConfig tc = *config_.trace;
        tc.path += ".p" + std::to_string(p);
        part_tracers_.push_back(std::make_unique<trace::Tracer>(tc));
        tracers.push_back(part_tracers_.back().get());
      }
      medium_.set_partition_tracers(std::move(tracers));
    }
  }
  if (config_.dynamics &&
      (config_.dynamics->mobility || config_.dynamics->channel)) {
    // Resolve defaults in place so config() reports the effective values.
    dynamics::DynamicsConfig& dc = *config_.dynamics;
    if (dc.mobility) {
      // Default the mobility bounds to the testbed's floor.
      if (dc.mobility->width_m <= 0.0) {
        dc.mobility->width_m = tb_.config().width_m;
      }
      if (dc.mobility->height_m <= 0.0) {
        dc.mobility->height_m = tb_.config().height_m;
      }
    }
    dynamics_ = std::make_unique<dynamics::Dynamics>(
        sim_, medium_, channel_, dc, rng_.substream(0xd14a, 0));
    dynamics_->start();
  }
}

sim::Simulator& World::node_simulator(phy::NodeId id) {
  if (part_sims_.empty()) return sim_;
  return *part_sims_[static_cast<std::size_t>(plan_.partition_of(id))];
}

void World::build_requested() {
  if (built_) return;
  built_ = true;
  std::vector<phy::LiveNode> live;
  std::vector<bool> seen(static_cast<std::size_t>(tb_.size()), false);
  const auto want = [&](phy::NodeId id) {
    if (id == phy::kBroadcastId || seen[id]) return;
    seen[id] = true;
    live.push_back({id, tb_.position(id)});
  };
  for (const Request& r : requests_) {
    want(r.src);
    if (r.flow) want(r.dst);
  }
  plan_ = phy::make_partition_plan(
      live, medium_.row_links_among(live, radio_config_.tx_power_dbm),
      plan_.count);
  // Every testbed id reads a partition, -1 until its node is built.
  plan_.part_of_node.resize(static_cast<std::size_t>(tb_.size()), -1);
  // Built in the order asked for, as the serial path builds them: attach
  // order is the order of each row, and with it of every fan-out.
  for (const Request& r : requests_) {
    if (r.flow) {
      add_saturated_flow(r.src, r.dst);
    } else {
      add_node(r.src);
    }
  }
  requests_ = {};
}

void World::run(sim::Time until) {
  if (part_sims_.empty()) {
    sim_.run_until(until);
    return;
  }
  build_requested();
  CMAP_ASSERT(sim_.queue().empty(),
              "the run simulator holds events under PDES");
  ++pdes_runs_;
  // No delivery crosses a partition (phy/partition.h), so each partition
  // runs to the horizon on its own.
  for (const auto& part : part_sims_) {
    const sim::Time next = part->queue().next_time();
    if (next > until) continue;
    window_log2_[log2_bin(static_cast<std::uint64_t>(until + 1 - next))]++;
  }
  // Timing reads a wall clock; only pay for it when metrics were asked
  // for.
  const bool timed = registry_ != nullptr;
  const std::int64_t t0 = timed ? profile_clock_ns() : 0;
  team_->run(part_sims_.size(), [&](std::size_t p) {
    const std::int64_t start = timed ? profile_clock_ns() : 0;
    part_sims_[p]->run_until(until);
    // Each partition writes its own slot.
    if (timed) busy_ns_[p] += elapsed_ns(start);
  });
  if (timed) parallel_ns_ += elapsed_ns(t0);
}

void World::add_node(phy::NodeId id) {
  if (!built_) {
    requests_.push_back({id, id, false});
    return;
  }
  if (nodes_.count(id)) return;
  if (!part_sims_.empty() && plan_.partition_of(id) < 0) {
    std::fprintf(stderr, "World: node %u added after the PDES plan\n", id);
    CMAP_ASSERT(false, "a PDES world plans its nodes once (see stderr)");
  }
  NodeState st;
  sim::Simulator& nsim = node_simulator(id);
  st.radio = std::make_unique<phy::Radio>(nsim, medium_, id, tb_.position(id),
                                          radio_config_, tb_.error_model(),
                                          rng_.substream(0x4ad10, id));
  if (scheme_is_cmap(config_.scheme)) {
    st.mac = std::make_unique<core::CmapMac>(nsim, *st.radio, config_.cmap,
                                             rng_.substream(0x3ac, id));
  } else {
    st.mac = std::make_unique<mac80211::DcfMac>(nsim, *st.radio, config_.dcf,
                                                rng_.substream(0x3ac, id));
  }
  st.sink = std::make_unique<net::PacketSink>(*st.mac, nsim);
  st.sink->set_window(config_.warmup, config_.duration);
  nodes_[id] = std::move(st);
}

void World::add_saturated_flow(phy::NodeId src, phy::NodeId dst) {
  if (!built_) {
    requests_.push_back({src, dst, true});
    return;
  }
  add_node(src);
  if (dst != phy::kBroadcastId) add_node(dst);
  NodeState& st = nodes_.at(src);
  CMAP_ASSERT(!st.source, "node already has a source");
  st.source = std::make_unique<net::SaturatedSource>(
      *st.mac, src, dst, config_.packet_bytes);
}

void World::set_measurement_window(sim::Time begin, sim::Time end) {
  build_requested();
  for (auto& [id, st] : nodes_) st.sink->set_window(begin, end);
}

metrics::MetricsSnapshot World::metrics_snapshot() {
  metrics::MetricsSnapshot snap;
  if (registry_ == nullptr) return snap;
  snap.domains = registry_->domains();
  for (std::size_t i = 0; i < metrics::kCounterCount; ++i) {
    snap.counters[i] =
        registry_->value(static_cast<metrics::Counter>(i));
  }
  snap.queue_depth_high_water = sim_.queue().depth_high_water();
  snap.queue_compactions = sim_.queue().compactions();
  if (part_sims_.empty()) {
    metrics::PartitionExec pe;
    pe.executed = sim_.queue().executed();
    snap.parts.push_back(pe);
    return snap;
  }
  snap.partitions = plan_.count;
  snap.threads = std::min(config_.pdes.threads, plan_.count);
  snap.rounds = pdes_runs_;
  snap.window_log2 = window_log2_;
  snap.parallel_wall_ms = static_cast<double>(parallel_ns_) / 1e6;
  for (std::size_t p = 0; p < part_sims_.size(); ++p) {
    sim::EventQueue& q = part_sims_[p]->queue();
    snap.queue_depth_high_water =
        std::max<std::uint64_t>(snap.queue_depth_high_water,
                                q.depth_high_water());
    snap.queue_compactions += q.compactions();
    metrics::PartitionExec pe;
    pe.partition = static_cast<int>(p);
    pe.executed = q.executed();
    pe.busy_ms = static_cast<double>(busy_ns_[p]) / 1e6;
    pe.barrier_wait_ms = std::max(snap.parallel_wall_ms - pe.busy_ms, 0.0);
    snap.parts.push_back(pe);
  }
  return snap;
}

mac::Mac& World::mac(phy::NodeId id) {
  build_requested();
  return *nodes_.at(id).mac;
}

net::PacketSink& World::sink(phy::NodeId id) {
  build_requested();
  return *nodes_.at(id).sink;
}

phy::Radio& World::radio(phy::NodeId id) {
  build_requested();
  return *nodes_.at(id).radio;
}

const phy::Medium& World::medium() {
  build_requested();
  return medium_;
}

core::CmapMac* World::cmap(phy::NodeId id) {
  return dynamic_cast<core::CmapMac*>(&mac(id));
}

mac80211::DcfMac* World::dcf(phy::NodeId id) {
  return dynamic_cast<mac80211::DcfMac*>(&mac(id));
}

RunResult run_flows(const Testbed& tb, const std::vector<Flow>& flows,
                    const RunConfig& config) {
  World world(tb, config);
  for (const auto& f : flows) {
    world.add_saturated_flow(f.src, f.dst);
  }
  world.run(config.duration);
  return collect_results(world, flows);
}

RunResult collect_results(World& world, const std::vector<Flow>& flows) {
  RunResult result;
  for (const auto& f : flows) {
    FlowResult fr;
    fr.flow = f;
    // The flow's own packets: other flows may share its destination.
    const net::PacketSink::Tally got = world.sink(f.dst).from(f.src);
    fr.mbps = got.meter.mbps();
    fr.unique_packets = got.unique_packets;
    fr.duplicates = got.duplicate_packets;
    fr.sender_stats = world.mac(f.src).stats();
    if (auto* sender = world.cmap(f.src)) {
      fr.vps_sent = sender->counters().vps_sent;
      fr.defer_events = sender->counters().defer_events;
      fr.retx_timeouts = sender->counters().retx_timeouts;
    }
    if (auto* receiver = world.cmap(f.dst)) {
      const auto vps = receiver->rx_counts_from(f.src);
      fr.rx_vps_delim = vps.vps_delim_received;
      fr.rx_vps_header = vps.vps_header_received;
    }
    result.flows.push_back(fr);
    result.aggregate_mbps += fr.mbps;
  }
  result.profile = publish_metrics(world);
  return result;
}

std::shared_ptr<const metrics::MetricsSnapshot> publish_metrics(World& world) {
  const auto& config = world.config().metrics;
  if (!config) return nullptr;
  auto snap =
      std::make_shared<metrics::MetricsSnapshot>(world.metrics_snapshot());
  if (!config->path.empty()) {
    std::FILE* f = std::fopen(config->path.c_str(), "w");
    CMAP_ASSERT(f != nullptr, ("cannot open metrics file for writing: " +
                               config->path).c_str());
    const std::string json = snap->to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return snap;
}

}  // namespace cmap::testbed

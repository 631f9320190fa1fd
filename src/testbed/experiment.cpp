#include "testbed/experiment.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>

#include "sim/assert.h"

namespace cmap::testbed {
namespace {

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
      medium_(sim_, channel_ ? std::shared_ptr<const phy::PropagationModel>(
                                   channel_)
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
  if (config_.pdes.partitions > 1) {
    // The plan itself waits for the live nodes (build_requested).
    built_ = false;
    plan_.count =
        std::min(config_.pdes.partitions, std::max(tb_.size(), 1));
    engine_ = std::make_unique<sim::PdesEngine>(sim_, plan_.count,
                                                config_.pdes.threads);
    medium_.set_pdes(engine_.get(), &plan_);
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
    engine_->set_topology_refresh([this] { refresh_pdes_delays(); });
    // Stall attribution reads a wall clock; only pay for it when metrics
    // were asked for.
    if (registry_ != nullptr) engine_->enable_profiling();
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
  if (engine_ == nullptr) return sim_;
  return engine_->partition_sim(plan_.partition_of(id));
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

void World::refresh_pdes_delays() {
  if (engine_ == nullptr) return;
  if (pdes_delays_valid_ && medium_.rows_epoch() == pdes_epoch_) return;
  pdes_delays_valid_ = true;
  pdes_epoch_ = medium_.rows_epoch();
  engine_->set_min_delays(phy::min_row_delays(medium_, plan_));
}

void World::run(sim::Time until) {
  if (engine_ == nullptr) {
    sim_.run_until(until);
    return;
  }
  build_requested();
  refresh_pdes_delays();
  engine_->run_until(until);
}

void World::add_node(phy::NodeId id) {
  if (!built_) {
    requests_.push_back({id, id, false});
    return;
  }
  if (nodes_.count(id)) return;
  if (engine_ != nullptr) plan_.place(id);
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
  if (engine_ == nullptr) {
    snap.partitions = 1;
    snap.queue_depth_high_water = sim_.queue().depth_high_water();
    snap.queue_compactions = sim_.queue().compactions();
    metrics::PartitionExec pe;
    pe.partition = 0;
    pe.executed = sim_.queue().executed();
    snap.parts.push_back(pe);
    return snap;
  }
  snap.partitions = engine_->partitions();
  // The engine's crew is capped at the partition count.
  snap.threads = std::min(config_.pdes.threads, engine_->partitions());
  snap.queue_depth_high_water = sim_.queue().depth_high_water();
  snap.queue_compactions = sim_.queue().compactions();
  const sim::PdesExecStats& es = engine_->exec_stats();
  snap.rounds = engine_->rounds();
  snap.global_barriers = es.global_barriers;
  snap.window_log2 = es.window_log2;
  snap.parallel_wall_ms = static_cast<double>(es.parallel_ns) / 1e6;
  for (int p = 0; p < engine_->partitions(); ++p) {
    sim::EventQueue& q = engine_->partition_sim(p).queue();
    if (q.depth_high_water() > snap.queue_depth_high_water) {
      snap.queue_depth_high_water = q.depth_high_water();
    }
    snap.queue_compactions += q.compactions();
    metrics::PartitionExec pe;
    pe.partition = p;
    pe.executed = q.executed();
    pe.mailbox_posted = engine_->mailbox_posted(p);
    pe.busy_ms =
        static_cast<double>(es.busy_ns[static_cast<std::size_t>(p)]) / 1e6;
    pe.barrier_wait_ms = snap.parallel_wall_ms > pe.busy_ms
                             ? snap.parallel_wall_ms - pe.busy_ms
                             : 0.0;
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

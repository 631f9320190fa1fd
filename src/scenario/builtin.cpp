// The builtin scenario catalog: every workload of the paper's evaluation
// (§5) plus non-paper workloads that widen the scenario space. Each entry
// is a ~20-line registration — a topology generator, optionally a custom
// executor, and defaults — which is the template for adding new ones.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "dynamics/dynamics.h"
#include "scenario/registry.h"
#include "sim/assert.h"
#include "testbed/topology_picker.h"

namespace cmap::scenario {
namespace {

std::string pair_label(const testbed::LinkPair& p) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u->%u %u->%u", p.s1, p.r1, p.s2, p.r2);
  return buf;
}

// A bespoke executor that builds more than one World per cell gives each
// earlier World its own trace stream and metrics file, `<cell path><suffix>`
// (see Sweep::trace and Sweep::metrics); otherwise the Worlds would open,
// and clobber, one file. The cell paths belong to the measured World.
testbed::RunConfig with_output_suffix(testbed::RunConfig config,
                                      const char* suffix) {
  if (config.trace && !config.trace->path.empty()) {
    config.trace->path += suffix;
  }
  if (config.metrics && !config.metrics->path.empty()) {
    config.metrics->path += suffix;
  }
  return config;
}

std::vector<TopologyInstance> instances_from_pairs(
    const std::vector<testbed::LinkPair>& pairs) {
  std::vector<TopologyInstance> out;
  out.reserve(pairs.size());
  for (const auto& p : pairs) {
    TopologyInstance inst;
    inst.flows = {{p.s1, p.r1}, {p.s2, p.r2}};
    inst.label = pair_label(p);
    out.push_back(std::move(inst));
  }
  return out;
}

// ---- Fig. 11 two-pair constraint classes (§5.2, §5.3, §5.5) ----

Scenario make_pair_scenario(std::string name, std::string description,
                            std::vector<testbed::LinkPair> (
                                testbed::TopologyPicker::*pick)(int, sim::Rng&)
                                const) {
  Scenario s;
  s.name = std::move(name);
  s.description = std::move(description);
  s.topology = [pick](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    return instances_from_pairs((picker.*pick)(count, rng));
  };
  return s;
}

// ---- §4.2 calibration: single clean links ----

Scenario make_single_link() {
  Scenario s;
  s.name = "single_link";
  s.description = "one saturated flow over a random potential link (§4.2 "
                  "calibration)";
  s.topology = [](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    const auto& links = picker.potential_links();
    std::vector<TopologyInstance> out;
    for (int i = 0; i < count && !links.empty(); ++i) {
      const auto& [src, dst] = links[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(links.size()) - 1))];
      TopologyInstance inst;
      inst.flows = {{src, dst}};
      inst.label = describe_flows(inst.flows);
      out.push_back(std::move(inst));
    }
    return out;
  };
  return s;
}

// ---- §5.6 access-point cells ----

Scenario make_ap_wlan(std::string name, int n_aps) {
  Scenario s;
  s.name = std::move(name);
  char desc[96];
  std::snprintf(desc, sizeof(desc),
                "%d APs in distinct regions, one random-direction flow per "
                "cell (§5.6)",
                n_aps);
  s.description = desc;
  s.topology = [n_aps](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    std::vector<TopologyInstance> out;
    for (int i = 0; i < count; ++i) {
      const auto sc = picker.ap_scenario(n_aps, rng);
      if (!sc) continue;
      TopologyInstance inst;
      for (const auto& cell : sc->cells) {
        inst.flows.push_back({cell.sender(), cell.receiver()});
      }
      inst.label = describe_flows(inst.flows);
      out.push_back(std::move(inst));
    }
    return out;
  };
  return s;
}

// ---- §5.7 two-hop dissemination mesh (custom two-phase executor) ----

Scenario make_mesh_dissemination() {
  Scenario s;
  s.name = "mesh_dissemination";
  s.description = "S broadcasts to forwarders A1..A3, then the A's push to "
                  "their B's concurrently; per-path goodput is the min of "
                  "the two hops (§5.7)";
  s.topology = [](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    std::vector<TopologyInstance> out;
    for (int i = 0; i < count; ++i) {
      const auto sc = picker.mesh_scenario(3, rng);
      if (!sc) continue;
      TopologyInstance inst;
      for (std::size_t j = 0; j < sc->a.size(); ++j) {
        inst.flows.push_back({sc->a[j], sc->b[j]});
      }
      inst.extras = {sc->s};
      char buf[96];
      std::snprintf(buf, sizeof(buf), "S=%u A/B=%s", sc->s,
                    describe_flows(inst.flows).c_str());
      inst.label = buf;
      out.push_back(std::move(inst));
    }
    return out;
  };
  s.run = [](const RunContext& ctx) {
    CMAP_ASSERT(!ctx.topology.extras.empty(), "mesh instance needs a source");
    const phy::NodeId source = ctx.topology.extras[0];
    const sim::Time phase = ctx.config.duration / 2;
    const sim::Time measure_from = phase / 5;

    // Phase 1: the source broadcasts to its forwarders.
    testbed::World w1(ctx.tb, with_output_suffix(ctx.config, ".phase1"));
    w1.add_node(source);
    for (const auto& f : ctx.topology.flows) w1.add_node(f.src);
    w1.add_saturated_flow(source, phy::kBroadcastId);
    w1.set_measurement_window(measure_from, phase);
    w1.run(phase);
    testbed::publish_metrics(w1);

    // Phase 2: the forwarders push onward concurrently.
    testbed::World w2(ctx.tb, ctx.config);
    for (const auto& f : ctx.topology.flows) {
      w2.add_saturated_flow(f.src, f.dst);
    }
    w2.set_measurement_window(measure_from, phase);
    w2.run(phase);

    RunOutcome out;
    out.profile = testbed::publish_metrics(w2);
    for (const auto& f : ctx.topology.flows) {
      const double hop1 = w1.sink(f.src).meter().mbps();
      const double hop2 = w2.sink(f.dst).meter().mbps();
      testbed::FlowResult fr;
      fr.flow = f;
      fr.mbps = std::min(hop1, hop2);
      fr.unique_packets = w2.sink(f.dst).unique_packets();
      fr.duplicates = w2.sink(f.dst).duplicate_packets();
      out.flows.push_back(fr);
      out.aggregate_mbps += fr.mbps;
    }
    return out;
  };
  return s;
}

// ---- §5.4 sender/receiver/interferer triples (custom executor) ----

Scenario make_interferer_triple() {
  Scenario s;
  s.name = "interferer_triple";
  s.description = "S->R alone, then with I broadcasting continuously; "
                  "reports normalized throughput vs min PRR from I (§5.4)";
  s.topology = [](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    std::vector<TopologyInstance> out;
    for (const auto& t : picker.interferer_triples(count, rng)) {
      TopologyInstance inst;
      inst.flows = {{t.s, t.r}};
      inst.extras = {t.i};
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%u->%u I=%u", t.s, t.r, t.i);
      inst.label = buf;
      out.push_back(std::move(inst));
    }
    return out;
  };
  s.run = [](const RunContext& ctx) {
    CMAP_ASSERT(ctx.topology.extras.size() == 1, "triple needs an interferer");
    const testbed::Flow flow = ctx.topology.flows[0];
    const phy::NodeId interferer = ctx.topology.extras[0];

    const double alone =
        testbed::run_flows(ctx.tb, {flow},
                           with_output_suffix(ctx.config, ".alone"))
            .flows[0]
            .mbps;
    RunOutcome out;
    if (alone <= 0.01) {
      out.valid = false;  // control run below the measurement floor
      return out;
    }
    testbed::World world(ctx.tb, ctx.config);
    world.add_saturated_flow(flow.src, flow.dst);
    world.add_saturated_flow(interferer, phy::kBroadcastId);
    world.run(ctx.config.duration);
    out.profile = testbed::publish_metrics(world);
    const double with_i = world.sink(flow.dst).meter().mbps();
    const double norm = std::min(1.0, with_i / alone);
    const double prr_r = ctx.tb.prr(interferer, flow.dst);
    const double prr_s = ctx.tb.prr(interferer, flow.src);
    out.aggregate_mbps = with_i;
    out.metrics = {{"alone_mbps", alone},
                   {"norm_throughput", norm},
                   {"min_prr", std::min(prr_r, prr_s)},
                   {"prr_to_receiver", prr_r},
                   {"prr_to_sender", prr_s}};
    return out;
  };
  return s;
}

// ---- Fig. 19 workload: k concurrent flows over disjoint node sets ----

Scenario make_disjoint_flows(std::string name, int k) {
  Scenario s;
  s.name = std::move(name);
  char desc[80];
  std::snprintf(desc, sizeof(desc),
                "%d concurrent potential-link flows over disjoint nodes", k);
  s.description = desc;
  s.topology = [k](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    const auto& links = picker.potential_links();
    std::vector<TopologyInstance> out;
    if (links.empty()) return out;
    for (int i = 0; i < count; ++i) {
      TopologyInstance inst;
      std::vector<phy::NodeId> used;
      int guard = 0;
      while (static_cast<int>(inst.flows.size()) < k && guard++ < 4000) {
        const auto& [a, b] =
            links[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(links.size()) - 1))];
        bool clash = false;
        for (phy::NodeId u : used) clash = clash || u == a || u == b;
        if (clash) continue;
        inst.flows.push_back({a, b});
        used.push_back(a);
        used.push_back(b);
      }
      if (static_cast<int>(inst.flows.size()) < k) continue;
      inst.label = describe_flows(inst.flows);
      out.push_back(std::move(inst));
    }
    return out;
  };
  return s;
}

// ---- §3.2 per-destination-queue ablation (custom executor) ----

Scenario make_dest_queue_ablation() {
  Scenario s;
  s.name = "dest_queue_ablation";
  s.description = "conflicting in-range pair where sender 1 also has "
                  "traffic to a clean alternative destination (§3.2 "
                  "optimization); toggle config.cmap.per_dest_queues";
  s.topology = [](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    const auto pairs = picker.in_range_pairs(count, rng);
    const auto& links = picker.potential_links();
    std::vector<TopologyInstance> out;
    for (const auto& p : pairs) {
      // Alternative destination for s1: a potential link to someone who is
      // not in range of the competing sender s2.
      phy::NodeId alt = phy::kBroadcastId;
      for (const auto& [a, b] : links) {
        if (a != p.s1) continue;
        if (b == p.r1 || b == p.r2 || b == p.s2) continue;
        if (tb.in_range(p.s2, b)) continue;
        alt = b;
        break;
      }
      if (alt == phy::kBroadcastId) continue;
      TopologyInstance inst;
      inst.flows = {{p.s1, p.r1}, {p.s2, p.r2}};
      inst.extras = {alt};
      char buf[80];
      std::snprintf(buf, sizeof(buf), "%s alt=%u", pair_label(p).c_str(), alt);
      inst.label = buf;
      out.push_back(std::move(inst));
    }
    return out;
  };
  s.run = [](const RunContext& ctx) {
    CMAP_ASSERT(ctx.topology.extras.size() == 1, "needs an alternative dest");
    const testbed::Flow f1 = ctx.topology.flows[0];
    const testbed::Flow f2 = ctx.topology.flows[1];
    const phy::NodeId alt = ctx.topology.extras[0];

    testbed::World world(ctx.tb, ctx.config);
    world.add_node(f1.src);
    world.add_node(f1.dst);
    world.add_node(alt);
    world.add_saturated_flow(f2.src, f2.dst);
    // Sender 1 alternates between the conflicted and the clean
    // destination; per-dest queues let it serve the clean one while the
    // conflicted head-of-line packet defers.
    auto& m = world.mac(f1.src);
    std::uint64_t id = static_cast<std::uint64_t>(f1.src) << 32;
    const auto fill = [&m, &id, f1, alt, bytes = ctx.config.packet_bytes] {
      while (m.queue_depth() < 64) {
        mac::Packet pkt;
        pkt.src = f1.src;
        pkt.dst = (id % 2 == 0) ? f1.dst : alt;
        pkt.id = ++id;
        pkt.bytes = bytes;
        if (!m.send(pkt)) break;
      }
    };
    m.set_drain_handler(fill);
    fill();
    world.run(ctx.config.duration);

    const double to_r1 = world.sink(f1.dst).meter().mbps();
    const double to_alt = world.sink(alt).meter().mbps();
    RunOutcome out;
    out.aggregate_mbps = to_r1 + to_alt;
    out.metrics = {{"to_conflicted_mbps", to_r1}, {"to_clean_mbps", to_alt}};
    return out;
  };
  return s;
}

// ---- NEW (non-paper): concurrent hops of a random multi-hop chain ----

Scenario make_chain() {
  Scenario s;
  s.name = "chain";
  s.description = "random 6-node chain of potential links; the three "
                  "alternating hops transmit concurrently — adjacent hops "
                  "range from exposed to conflicting";
  s.topology = [](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    std::map<phy::NodeId, std::vector<phy::NodeId>> adj;
    for (const auto& [a, b] : picker.potential_links()) adj[a].push_back(b);
    std::vector<phy::NodeId> heads;
    for (const auto& [a, nbrs] : adj) heads.push_back(a);
    std::vector<TopologyInstance> out;
    if (heads.empty()) return out;
    int guard = 0;
    while (static_cast<int>(out.size()) < count && guard++ < count * 400) {
      // Random walk over potential links, never revisiting a node.
      std::vector<phy::NodeId> path = {heads[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(heads.size()) - 1))]};
      while (path.size() < 6) {
        const auto it = adj.find(path.back());
        if (it == adj.end()) break;
        std::vector<phy::NodeId> fresh;
        for (phy::NodeId c : it->second) {
          if (std::find(path.begin(), path.end(), c) == path.end()) {
            fresh.push_back(c);
          }
        }
        if (fresh.empty()) break;
        path.push_back(fresh[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(fresh.size()) - 1))]);
      }
      if (path.size() < 6) continue;
      TopologyInstance inst;
      inst.flows = {{path[0], path[1]}, {path[2], path[3]}, {path[4], path[5]}};
      inst.label = describe_flows(inst.flows);
      out.push_back(std::move(inst));
    }
    return out;
  };
  return s;
}

// ---- NEW (non-paper): mixed exposed + hidden floor ----

Scenario make_mixed_floor() {
  Scenario s;
  s.name = "mixed_floor";
  s.description = "one exposed pair and one hidden pair share the floor "
                  "(four concurrent flows); a scheme must exploit the "
                  "exposed pair without melting down on the hidden one";
  s.topology = [](const testbed::Testbed& tb, int count, sim::Rng& rng) {
    testbed::TopologyPicker picker(tb);
    const auto exposed = picker.exposed_pairs(count * 2, rng);
    const auto hidden = picker.hidden_pairs(count * 2, rng);
    std::vector<TopologyInstance> out;
    std::set<std::size_t> used_hidden;
    for (const auto& e : exposed) {
      if (static_cast<int>(out.size()) >= count) break;
      const std::set<phy::NodeId> e_nodes = {e.s1, e.r1, e.s2, e.r2};
      // First unused hidden pair sharing no node with this exposed one. A
      // clash only disqualifies the hidden pair for THIS exposed pair, so
      // the scan restarts from the front each time.
      for (std::size_t h = 0; h < hidden.size(); ++h) {
        if (used_hidden.count(h)) continue;
        const auto& hp = hidden[h];
        if (e_nodes.count(hp.s1) || e_nodes.count(hp.r1) ||
            e_nodes.count(hp.s2) || e_nodes.count(hp.r2)) {
          continue;
        }
        TopologyInstance inst;
        inst.flows = {{e.s1, e.r1}, {e.s2, e.r2},
                      {hp.s1, hp.r1}, {hp.s2, hp.r2}};
        char buf[128];
        std::snprintf(buf, sizeof(buf), "exposed %s | hidden %s",
                      pair_label(e).c_str(), pair_label(hp).c_str());
        inst.label = buf;
        out.push_back(std::move(inst));
        used_hidden.insert(h);
        break;
      }
    }
    return out;
  };
  return s;
}

// ---- NEW (non-paper): dense grid — saturating fan-out at scale ----
//
// The PHY fast path's stress workload: a configurable fraction of the
// testbed's nodes transmit concurrently, each to its best-PRR neighbor.
// On a large testbed (hundreds of nodes) this keeps most radios busy most
// of the time, which is exactly the regime where per-transmit propagation
// recomputation and O(S^2) interference rescans used to dominate.

Scenario make_dense_grid(std::string name, int sender_pct) {
  Scenario s;
  s.name = std::move(name);
  char desc[112];
  std::snprintf(desc, sizeof(desc),
                "%d%% of all nodes transmit concurrently, each saturating a "
                "flow to its best-PRR neighbor (PHY fast-path stress)",
                sender_pct);
  s.description = desc;
  s.topology = [sender_pct](const testbed::Testbed& tb, int count,
                            sim::Rng& rng) {
    const int n = tb.size();
    const int k = std::max(1, n * sender_pct / 100);
    std::vector<TopologyInstance> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int draw = 0; draw < count; ++draw) {
      // k distinct senders via a partial Fisher-Yates shuffle.
      std::vector<phy::NodeId> ids(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
      for (int i = 0; i < k; ++i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(i, static_cast<std::int64_t>(n) - 1));
        std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
      }
      TopologyInstance inst;
      for (int i = 0; i < k; ++i) {
        const phy::NodeId src = ids[static_cast<std::size_t>(i)];
        // Best-PRR receiver among the stored connected row (ascending dst,
        // strict >), so a draw never touches the pair space; receivers
        // may themselves be senders (half-duplex contention is part of
        // the workload).
        phy::NodeId best = src;
        double best_prr = -1.0;
        for (const phy::NodeId dst : tb.connected_neighbors(src)) {
          const double p = tb.prr(src, dst);
          if (p > best_prr) {
            best_prr = p;
            best = dst;
          }
        }
        if (best == src) continue;  // isolated sender: no outbound links
        inst.flows.push_back({src, best});
      }
      if (inst.flows.empty()) continue;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%zu flows / %d nodes",
                    inst.flows.size(), n);
      inst.label = buf;
      out.push_back(std::move(inst));
    }
    return out;
  };
  // Dense runs are expensive per simulated second; default to a short
  // window (sweeps override as usual).
  s.defaults.duration = sim::seconds(10);
  s.defaults.warmup = sim::seconds(4);
  return s;
}

// ---- NEW: testbed_100/200/400 — large-building scaling family ----
//
// The dense-grid workload bound to a canonical large testbed: each member
// prescribes its own building via Scenario::testbed, so SweepRunner's
// run(sweep) overload instantiates it through the global TestbedCache
// (one measurement pass per size, however many sweeps run). This is the
// scenario family the tabulated measurement pass exists for — the
// exposed-terminal concurrency gains the paper reports need large-n
// evidence, and cheap testbed instantiation is what unlocks it.

Scenario make_testbed_family(int nodes) {
  Scenario s = make_dense_grid("testbed_" + std::to_string(nodes), 25);
  char desc[112];
  std::snprintf(desc, sizeof(desc),
                "dense-grid workload on a canonical %d-node building "
                "(resolved via TestbedCache; scaling family)",
                nodes);
  s.description = desc;
  testbed::TestbedConfig cfg;
  cfg.num_nodes = nodes;
  // Same floor density as the paper's 50-node / 70x40 m office.
  const double scale = std::sqrt(nodes / 50.0);
  cfg.width_m = 70.0 * scale;
  cfg.height_m = 40.0 * scale;
  s.testbed = cfg;
  return s;
}

// ---- NEW: flows_50/100/200 — MAC-decision high-concurrency family ----
//
// Exactly N concurrent flows on a canonical 2N-node building: half the
// floor transmits at once, each sender saturating a flow to its best-PRR
// neighbor. This is the regime where the CMAP send decision — conflict-map
// consultation on every transmit attempt — dominates the simulation loop;
// the decision-fastpath golden test and bench_mac_decide run on it. Like
// the testbed_* family, the building is prescribed via Scenario::testbed
// and resolved through the global TestbedCache.

Scenario make_flows_family(int flows) {
  // make_dense_grid with 50% senders on a 2N-node floor draws exactly N
  // distinct senders per topology instance.
  Scenario s = make_dense_grid("flows_" + std::to_string(flows), 50);
  char desc[128];
  std::snprintf(desc, sizeof(desc),
                "%d concurrent best-PRR flows on a canonical %d-node "
                "building (MAC decision stress; TestbedCache-resolved)",
                flows, 2 * flows);
  s.description = desc;
  testbed::TestbedConfig cfg;
  cfg.num_nodes = 2 * flows;
  const double scale = std::sqrt(2.0 * flows / 50.0);
  cfg.width_m = 70.0 * scale;
  cfg.height_m = 40.0 * scale;
  s.testbed = cfg;
  return s;
}

// ---- NEW: metro_10k — sparse link-state at metropolitan scale ----
//
// The dense-grid workload on ten thousand nodes at the paper's floor
// density: 10^8 directed pairs, a world no O(n^2) store could hold, and
// the scale the sparse Medium rows and the Testbed's CSR pair store exist
// for. The building raises the delivery floor and narrows both guard
// bands so candidate neighborhoods stay
// metropolitan-sparse (~a thousand candidates, a few dozen connected
// neighbors per node); with a static channel the sparse medium then holds
// active links only. The shared draw walks stored CSR rows
// (connected_neighbors), so a topology draw never touches the pair space
// either.

Scenario make_metro(int nodes, int sender_pct) {
  Scenario s = make_dense_grid(
      "metro_" + std::to_string(nodes / 1000) + "k", sender_pct);
  char desc[128];
  std::snprintf(desc, sizeof(desc),
                "%d%% of %d nodes saturate best-PRR neighbor flows over "
                "sparse link state (10k-scale memory workload)",
                sender_pct, nodes);
  s.description = desc;
  testbed::TestbedConfig cfg;
  cfg.num_nodes = nodes;
  const double scale = std::sqrt(nodes / 50.0);
  cfg.width_m = 70.0 * scale;
  cfg.height_m = 40.0 * scale;
  // Metro floor: hear dozens of peers, not thousands. The paper's broad
  // -110 dBm connectivity floor is an office-scale choice; at 10k nodes it
  // would make every delivery fan out to a whole district.
  cfg.medium.delivery_floor_dbm = -94.0;
  // A 3-sigma guard keeps the candidate radius (and with it the
  // measurement pass and the spatial index's cell occupancy) metropolitan
  // -sparse; every other scenario keeps the default 6.
  cfg.medium.cull_guard_sigmas = 3.0;
  cfg.measurement.sparse_guard_sigmas = 3.0;
  s.testbed = cfg;
  // Event-dense at hundreds of concurrent flows: default to a short
  // window (sweeps override as usual).
  s.defaults.duration = sim::seconds(2);
  s.defaults.warmup = sim::milliseconds(500);
  return s;
}

// ---- NEW: mobile_* / churn_* — time-varying-environment family ----
//
// The adaptation workload the paper's TTL machinery (§3.1/§3.4) exists
// for: nodes move and the channel re-shadows mid-run, so conflicts learned
// early go stale and must age out of the DeferTable while interferer-list
// broadcasts teach the new geometry. Every member shortens the defer TTL
// so expiry actually happens within a run, prescribes the canonical
// 50-node building (Scenario::testbed), and layers a slowly-evolving AR(1)
// channel on top of the motion.

dynamics::DynamicsConfig make_dynamics(dynamics::MobilityPattern pattern,
                                       double mobile_fraction) {
  dynamics::DynamicsConfig dc;
  dynamics::MobilityConfig m;
  m.pattern = pattern;
  m.mobile_fraction = mobile_fraction;
  dc.mobility = m;
  dynamics::ChannelConfig ch;
  ch.sigma_db = 2.0;
  ch.correlation = 0.9;
  ch.epoch = sim::milliseconds(500);
  dc.channel = ch;
  return dc;
}

void apply_mobile_defaults(Scenario& s, dynamics::MobilityPattern pattern,
                           double mobile_fraction) {
  s.defaults.dynamics = make_dynamics(pattern, mobile_fraction);
  // Short enough that conflicts learned before the geometry shifted
  // expire within the default run; long enough to be useful while fresh.
  // Interferer lists re-broadcast at twice the default cadence so the new
  // geometry is re-taught promptly after old entries age out.
  s.defaults.cmap.defer_entry_ttl = sim::seconds(5);
  s.defaults.cmap.ilist_period = sim::milliseconds(500);
  s.defaults.duration = sim::seconds(20);
  s.defaults.warmup = sim::seconds(5);
  s.testbed = testbed::TestbedConfig{};  // canonical 50-node building
}

Scenario make_mobile_floor(int sender_pct) {
  Scenario s =
      make_dense_grid("mobile_floor_" + std::to_string(sender_pct), sender_pct);
  s.description = std::to_string(sender_pct) +
                  "%-sender dense floor where half the participating nodes "
                  "random-waypoint at pedestrian speed under an evolving "
                  "channel (defer TTL 5 s)";
  apply_mobile_defaults(s, dynamics::MobilityPattern::kWaypoint, 0.5);
  return s;
}

Scenario make_mobile_chain() {
  Scenario s = make_chain();
  s.name = "mobile_chain";
  s.description =
      "the chain workload while every node drifts across the floor under an "
      "evolving channel — adjacent hops slide between exposed and conflicting";
  apply_mobile_defaults(s, dynamics::MobilityPattern::kDrift, 1.0);
  return s;
}

Scenario make_churn(int churn_pct) {
  Scenario s = make_dense_grid("churn_" + std::to_string(churn_pct), 25);
  s.description = "25%-sender dense floor where " +
                  std::to_string(churn_pct) +
                  "% of participating nodes teleport after exponential "
                  "dwell times (arrival/departure churn; defer TTL 5 s)";
  apply_mobile_defaults(s, dynamics::MobilityPattern::kChurn,
                        churn_pct / 100.0);
  return s;
}

}  // namespace

void register_builtin_scenarios(ScenarioRegistry& registry) {
  registry.add(make_pair_scenario(
      "fig12_exposed",
      "exposed-terminal link pairs per Fig. 11(a) (§5.2)",
      &testbed::TopologyPicker::exposed_pairs));
  registry.add(make_pair_scenario(
      "fig13_inrange",
      "in-range, otherwise unconstrained link pairs per Fig. 11(b) (§5.3)",
      &testbed::TopologyPicker::in_range_pairs));
  registry.add(make_pair_scenario(
      "fig15_hidden",
      "hidden-terminal link pairs per Fig. 11(c) (§5.5)",
      &testbed::TopologyPicker::hidden_pairs));
  registry.add(make_single_link());
  registry.add(make_ap_wlan("ap_wlan", 4));
  for (int n = 3; n <= 6; ++n) {
    registry.add(make_ap_wlan("ap_wlan_" + std::to_string(n), n));
  }
  registry.add(make_mesh_dissemination());
  registry.add(make_interferer_triple());
  for (int k = 2; k <= 7; ++k) {
    registry.add(make_disjoint_flows("disjoint_flows_" + std::to_string(k), k));
  }
  registry.add(make_dest_queue_ablation());
  registry.add(make_chain());
  registry.add(make_mixed_floor());
  for (int pct : {10, 25, 50}) {
    registry.add(make_dense_grid("dense_grid_" + std::to_string(pct), pct));
  }
  for (int nodes : {100, 200, 400}) {
    registry.add(make_testbed_family(nodes));
  }
  for (int flows : {50, 100, 200}) {
    registry.add(make_flows_family(flows));
  }
  registry.add(make_metro(10000, 1));
  for (int pct : {25, 50}) {
    registry.add(make_mobile_floor(pct));
  }
  registry.add(make_mobile_chain());
  registry.add(make_churn(25));
}

}  // namespace cmap::scenario

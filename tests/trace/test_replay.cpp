// Replay consistency: reconstructing a node's DeferTable from its
// kDeferTable trace records must match the live table, at every sampled
// tick, on a real contended workload (the flows_50 scenario: 50 flows on
// the canonical 100-node building).
//
// Stream position: a snapshot event at tick T captures
// Tracer::records_written() — replaying exactly that record-count prefix
// reproduces the table state at the instant the snapshot ran, which
// sidesteps any ambiguity between the snapshot event and other events
// scheduled at the same tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cmap_mac.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"
#include "trace/reader.h"

namespace cmap::trace {
namespace {

DeferTableReplay::Entry to_replay_entry(const core::DeferEntry& e) {
  DeferTableReplay::Entry out;
  out.dst = e.dst;
  out.src = e.src;
  out.via = e.via;
  out.my_rate = static_cast<std::uint32_t>(e.my_rate);
  out.their_rate = static_cast<std::uint32_t>(e.their_rate);
  out.expires = e.expires;
  return out;
}

bool entries_equal(const DeferTableReplay::Entry& a,
                   const DeferTableReplay::Entry& b) {
  return a.dst == b.dst && a.src == b.src && a.via == b.via &&
         a.my_rate == b.my_rate && a.their_rate == b.their_rate &&
         a.expires == b.expires;
}

struct Snapshot {
  sim::Time at = 0;
  std::uint64_t records = 0;  // trace position when the snapshot ran
  std::vector<std::pair<std::uint32_t, std::vector<DeferTableReplay::Entry>>>
      tables;  // node -> canonical live entries
};

TEST(DeferTableReplayTest, MatchesLiveTablesOnFlows50) {
  const scenario::Scenario& sc =
      scenario::ScenarioRegistry::global().at("flows_50");
  ASSERT_TRUE(sc.testbed.has_value());
  const auto tb = testbed::TestbedCache::global().get(*sc.testbed);

  sim::Rng topo_rng(42);
  const auto topologies = sc.topology(*tb, 1, topo_rng);
  ASSERT_FALSE(topologies.empty());
  const auto& flows = topologies.front().flows;
  ASSERT_FALSE(flows.empty());

  const std::string path = ::testing::TempDir() + "replay_flows50.cmtrace";
  testbed::RunConfig config = sc.defaults;
  config.scheme = testbed::Scheme::kCmap;
  config.duration = sim::seconds(2);
  config.warmup = sim::milliseconds(250);
  config.seed = 3;
  // Fast re-learning loop so the table actually churns inside a 2 s run:
  // interferer lists broadcast every 150 ms (default 1 s would fire once,
  // at the very end) and entries expire after 400 ms, so the replay must
  // agree through insert, refresh, AND expiry.
  config.cmap.ilist_period = sim::milliseconds(150);
  config.cmap.defer_entry_ttl = sim::milliseconds(400);
  config.trace = TraceConfig{};
  config.trace->path = path;
  config.trace->categories = bit(Category::kDeferTable);

  std::vector<std::uint32_t> node_ids;
  for (const auto& f : flows) {
    node_ids.push_back(f.src);
    node_ids.push_back(f.dst);
  }
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()),
                 node_ids.end());

  std::vector<Snapshot> snapshots;
  {
    testbed::World world(*tb, config);
    for (const auto& f : flows) world.add_saturated_flow(f.src, f.dst);
    ASSERT_NE(world.tracer(), nullptr);

    for (const sim::Time at :
         {sim::milliseconds(500), sim::milliseconds(900),
          sim::milliseconds(1400), sim::milliseconds(1999)}) {
      world.simulator().at(at, [&world, &snapshots, &node_ids, at] {
        Snapshot snap;
        snap.at = at;
        snap.records = world.tracer()->records_written();
        for (const std::uint32_t id : node_ids) {
          core::CmapMac* mac = world.cmap(id);
          ASSERT_NE(mac, nullptr);
          std::vector<DeferTableReplay::Entry> entries;
          for (const auto& e : mac->defer_table().snapshot(at)) {
            entries.push_back(to_replay_entry(e));
          }
          snap.tables.emplace_back(id, std::move(entries));
        }
        snapshots.push_back(std::move(snap));
      });
    }
    world.run(config.duration);
  }  // World destruction flushes the trace file.

  ASSERT_EQ(snapshots.size(), 4u);

  // Contention sanity: the workload must actually have populated conflict
  // maps, or the comparison proves nothing.
  std::size_t live_total = 0;
  for (const auto& snap : snapshots) {
    for (const auto& [id, entries] : snap.tables) live_total += entries.size();
  }
  ASSERT_GT(live_total, 0u) << "no defer entries ever live; test is vacuous";

  // Decode once; replay each snapshot as an exact record-count prefix.
  std::string error;
  const std::vector<Record> records = read_all(path, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_GT(records.size(), 0u);

  for (const auto& snap : snapshots) {
    ASSERT_LE(snap.records, records.size());
    DeferTableReplay replay;
    for (std::uint64_t i = 0; i < snap.records; ++i) {
      replay.apply(records[static_cast<std::size_t>(i)]);
    }
    for (const auto& [id, live_entries] : snap.tables) {
      const auto reconstructed = replay.live(id, snap.at);
      ASSERT_EQ(reconstructed.size(), live_entries.size())
          << "node " << id << " at " << snap.at;
      for (std::size_t i = 0; i < reconstructed.size(); ++i) {
        EXPECT_TRUE(entries_equal(reconstructed[i], live_entries[i]))
            << "node " << id << " at " << snap.at << " entry " << i;
      }
    }
  }

  // The full-stream replay's node set stays inside the run's node set.
  DeferTableReplay full;
  for (const auto& r : records) full.apply(r);
  for (const std::uint32_t id : full.nodes()) {
    EXPECT_TRUE(std::binary_search(node_ids.begin(), node_ids.end(), id))
        << "unexpected node " << id << " in trace";
  }

  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmap::trace

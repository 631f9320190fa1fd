// trace_diff's alignment primitive (first_divergence) and the OngoingList
// replayer, on seeded in-memory streams: identical streams report no
// divergence, a single flipped field registers at exactly its record
// index, a truncated stream reports which side ended, and OngoingReplay
// applies the note/update/expire semantics OngoingList defines (exclusive
// end-time boundary, reclamation never changes the live set). A world run
// then pins the replayer against the live lists themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cmap_mac.h"
#include "scenario/registry.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"
#include "trace/reader.h"
#include "trace/trace.h"

namespace cmap::trace {
namespace {

/// A Tracer writing into a MemoryTraceSink the test keeps a handle to.
struct MemoryTracer {
  explicit MemoryTracer(TraceConfig config) {
    auto owned = std::make_unique<MemoryTraceSink>();
    sink = owned.get();
    config.path = "<memory>";
    tracer = std::make_unique<Tracer>(config, std::move(owned));
  }
  MemoryTraceSink* sink = nullptr;
  std::unique_ptr<Tracer> tracer;
};

// A small deterministic stream: a PHY exchange plus MAC state churn.
// `flip_node` perturbs exactly one field of one record (the mac_defer
// node id), seeding a controlled divergence.
std::vector<std::uint8_t> make_stream(std::uint32_t flip_node) {
  TraceConfig config;  // all categories
  MemoryTracer mt(config);
  Tracer& t = *mt.tracer;
  t.record(1000, PhyTxRecord{7, 1, 0, 24, 56000});
  t.record(1000, OngoingRecord{6, OngoingOp::kNote, 7, 6, 57000});
  t.record(2000, MacDeferRecord{flip_node, 6, true, DeferReason::kDstBusy, 7,
                                6, 57000});
  t.record(57000, PhyRxRecord{6, 1, 7, true, 1234});
  t.record(57000, OngoingRecord{6, OngoingOp::kExpire, 7, 6, 57000});
  return mt.sink->bytes();
}

TEST(FirstDivergence, IdenticalStreamsReportNone) {
  const auto bytes = make_stream(9);
  TraceReader a(bytes);
  TraceReader b(bytes);
  ASSERT_TRUE(a.ok() && b.ok());
  const Divergence d = first_divergence(a, b);
  EXPECT_FALSE(d.diverged);
  EXPECT_EQ(d.index, 5u);  // records compared (all of them)
  EXPECT_TRUE(a.ok() && b.ok());
}

TEST(FirstDivergence, SingleFieldFlipRegistersAtItsIndex) {
  TraceReader a(make_stream(9));
  TraceReader b(make_stream(10));
  const Divergence d = first_divergence(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 2u);  // the mac_defer record
  EXPECT_FALSE(d.a_ended);
  EXPECT_FALSE(d.b_ended);
  EXPECT_EQ(d.a.category, Category::kMacDefer);
  EXPECT_EQ(d.b.category, Category::kMacDefer);
  EXPECT_EQ(std::get<MacDeferRecord>(d.a.body).node, 9u);
  EXPECT_EQ(std::get<MacDeferRecord>(d.b.body).node, 10u);
  // The records decode into describe()-able lines for the tool output.
  EXPECT_NE(describe(d.a), describe(d.b));
  EXPECT_NE(describe(d.a).find("mac_defer"), std::string::npos);
}

TEST(FirstDivergence, TickDifferenceRegisters) {
  TraceConfig config;
  MemoryTracer ma(config), mb(config);
  ma.tracer->record(1000, PhyTxRecord{1, 1, 0, 24, 56000});
  mb.tracer->record(1000, PhyTxRecord{1, 1, 0, 24, 56000});
  ma.tracer->record(5000, ChannelEpochRecord{1});
  mb.tracer->record(6000, ChannelEpochRecord{1});  // same payload, later tick
  TraceReader a(ma.sink->bytes());
  TraceReader b(mb.sink->bytes());
  const Divergence d = first_divergence(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 1u);
  EXPECT_EQ(d.a.tick, 5000);
  EXPECT_EQ(d.b.tick, 6000);
}

TEST(FirstDivergence, TruncatedStreamReportsWhichSideEnded) {
  TraceConfig config;
  MemoryTracer ma(config), mb(config);
  for (int i = 0; i < 3; ++i) {
    ma.tracer->record(1000 * (i + 1),
                      PhyTxRecord{1, static_cast<std::uint64_t>(i + 1), 0, 24,
                                  56000});
    if (i < 2) {
      mb.tracer->record(1000 * (i + 1),
                        PhyTxRecord{1, static_cast<std::uint64_t>(i + 1), 0,
                                    24, 56000});
    }
  }
  TraceReader a(ma.sink->bytes());
  TraceReader b(mb.sink->bytes());
  const Divergence d = first_divergence(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 2u);
  EXPECT_FALSE(d.a_ended);
  EXPECT_TRUE(d.b_ended);
  EXPECT_EQ(d.a.tick, 3000);
}

TEST(FirstDivergence, HeadersAreNotCompared) {
  // Same records under different category masks: still no divergence.
  TraceConfig wide;  // all categories enabled
  TraceConfig narrow;
  narrow.categories = bit(Category::kPhyTx);
  MemoryTracer ma(wide), mb(narrow);
  ma.tracer->record(1000, PhyTxRecord{1, 1, 0, 24, 56000});
  mb.tracer->record(1000, PhyTxRecord{1, 1, 0, 24, 56000});
  TraceReader a(ma.sink->bytes());
  TraceReader b(mb.sink->bytes());
  const Divergence d = first_divergence(a, b);
  EXPECT_FALSE(d.diverged);
}

TEST(OngoingReplay, NoteUpdateExpireSemantics) {
  TraceConfig config;
  MemoryTracer mt(config);
  Tracer& t = *mt.tracer;
  t.record(100, OngoingRecord{4, OngoingOp::kNote, 1, 2, 500});
  // Extended in place.
  t.record(200, OngoingRecord{4, OngoingOp::kUpdate, 1, 2, 900});
  t.record(200, OngoingRecord{4, OngoingOp::kNote, 3, 4, 600});
  t.record(300, OngoingRecord{9, OngoingOp::kNote, 5, 6, 700});
  // Reclamation: no-op.
  t.record(650, OngoingRecord{4, OngoingOp::kExpire, 3, 4, 600});

  OngoingReplay replay;
  TraceReader reader(mt.sink->bytes());
  Record r;
  while (reader.next(&r)) replay.apply(r);
  ASSERT_TRUE(reader.ok()) << reader.error();

  EXPECT_EQ(replay.nodes(), (std::vector<std::uint32_t>{4, 9}));

  // At 400: both of node 4's entries live (update extended 1->2 to 900).
  auto live = replay.live(4, 400);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].src, 1u);
  EXPECT_EQ(live[0].dst, 2u);
  EXPECT_EQ(live[0].end_time, 900);
  EXPECT_EQ(live[1].src, 3u);
  EXPECT_EQ(live[1].end_time, 600);

  // Exclusive boundary: dead AT its end time, live one tick before.
  EXPECT_EQ(replay.live(4, 599).size(), 2u);
  EXPECT_EQ(replay.live(4, 600).size(), 1u);
  EXPECT_EQ(replay.live(4, 900).size(), 0u);

  // The expire record changed nothing the end times had not already
  // decided; unknown nodes report empty, not error.
  EXPECT_EQ(replay.live(9, 650).size(), 1u);
  EXPECT_EQ(replay.live(123, 0).size(), 0u);
}

// World-level consistency: reconstructing OngoingLists from the kOngoing
// stream must match the live lists, mid-run, on a contended CMAP workload.
// Stream position: the snapshot event captures records_written() and the
// replay applies exactly that prefix (same technique as the DeferTable
// replay test).
TEST(OngoingReplay, MatchesLiveListsOnFig12) {
  const scenario::Scenario& sc =
      scenario::ScenarioRegistry::global().at("fig12_exposed");
  const testbed::TestbedConfig tb_cfg =
      sc.testbed ? *sc.testbed : testbed::TestbedConfig{};
  const auto tb = testbed::TestbedCache::global().get(tb_cfg);
  sim::Rng topo_rng(7);
  const auto topologies = sc.topology(*tb, 1, topo_rng);
  ASSERT_FALSE(topologies.empty());
  const auto& flows = topologies.front().flows;
  ASSERT_FALSE(flows.empty());

  const std::string path = ::testing::TempDir() + "ongoing_fig12.cmtrace";
  testbed::RunConfig config = sc.defaults;
  config.scheme = testbed::Scheme::kCmap;
  config.duration = sim::seconds(2);
  config.warmup = sim::milliseconds(250);
  config.seed = 11;
  config.trace = TraceConfig{};
  config.trace->path = path;
  config.trace->categories = bit(Category::kOngoing);

  std::vector<std::uint32_t> node_ids;
  for (const auto& f : flows) {
    node_ids.push_back(f.src);
    node_ids.push_back(f.dst);
  }
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()),
                 node_ids.end());

  struct Snapshot {
    sim::Time at = 0;
    std::uint64_t records = 0;
    // node -> live (src, dst, end) triples in canonical order
    std::vector<std::pair<std::uint32_t, std::vector<OngoingReplay::Entry>>>
        lists;
  };
  std::vector<Snapshot> snapshots;
  {
    testbed::World world(*tb, config);
    for (const auto& f : flows) world.add_saturated_flow(f.src, f.dst);
    ASSERT_NE(world.tracer(), nullptr);
    for (const sim::Time at :
         {sim::milliseconds(600), sim::milliseconds(1300),
          sim::milliseconds(1950)}) {
      world.simulator().at(at, [&world, &snapshots, &node_ids, at] {
        Snapshot snap;
        snap.at = at;
        snap.records = world.tracer()->records_written();
        for (const std::uint32_t id : node_ids) {
          core::CmapMac* mac = world.cmap(id);
          ASSERT_NE(mac, nullptr);
          std::vector<OngoingReplay::Entry> entries;
          for (const auto& tx : mac->ongoing_list().active(at)) {
            entries.push_back(OngoingReplay::Entry{tx.src, tx.dst,
                                                   tx.end_time});
          }
          std::sort(entries.begin(), entries.end(),
                    [](const OngoingReplay::Entry& a,
                       const OngoingReplay::Entry& b) {
                      return std::make_pair(a.src, a.dst) <
                             std::make_pair(b.src, b.dst);
                    });
          snap.lists.emplace_back(id, std::move(entries));
        }
        snapshots.push_back(std::move(snap));
      });
    }
    world.run(config.duration);
  }  // World destruction flushes the trace file.

  ASSERT_EQ(snapshots.size(), 3u);
  std::size_t live_total = 0;
  for (const auto& snap : snapshots) {
    for (const auto& [id, entries] : snap.lists) live_total += entries.size();
  }
  ASSERT_GT(live_total, 0u) << "no ongoing entries ever live; test vacuous";

  std::string error;
  const std::vector<Record> records = read_all(path, &error);
  ASSERT_TRUE(error.empty()) << error;

  for (const auto& snap : snapshots) {
    ASSERT_LE(snap.records, records.size());
    OngoingReplay replay;
    for (std::uint64_t i = 0; i < snap.records; ++i) {
      replay.apply(records[static_cast<std::size_t>(i)]);
    }
    for (const auto& [id, live_entries] : snap.lists) {
      const auto reconstructed = replay.live(id, snap.at);
      ASSERT_EQ(reconstructed.size(), live_entries.size())
          << "node " << id << " at " << snap.at;
      for (std::size_t i = 0; i < reconstructed.size(); ++i) {
        EXPECT_EQ(reconstructed[i].src, live_entries[i].src);
        EXPECT_EQ(reconstructed[i].dst, live_entries[i].dst);
        EXPECT_EQ(reconstructed[i].end_time, live_entries[i].end_time)
            << "node " << id << " at " << snap.at << " entry " << i;
      }
    }
  }

  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmap::trace

// Partitioned event-order fuzz (the PDES byte-identity contract observed
// at event granularity, not just report granularity): seeded random flow
// sets over the far-apart clusters of a sparse building
// (testbed/pdes_clusters.h) — each cluster its own link component, so the
// plan spreads them over the partitions, and saturated sources put many
// transmissions of different partitions on identical ticks — run once on
// the serial oracle and once under 4-partition PDES. The partitioned
// run's streams (global + one per partition) are reassembled with
// trace::merge_streams, and the two runs' event streams must agree:
//   * per node: the exact sequence of records mentioning that node (every
//     node's events are totally ordered; partitioning must not reorder,
//     drop, or duplicate any of them),
//   * per tick: the multiset of all records (same-tick records of
//     different nodes may interleave differently across stream files, but
//     the set of events at every instant is invariant).
// Streams must be unsampled for this comparison: per-partition tracers
// decimate independently, so sample_every > 1 would drop different
// records from equivalent runs. The partitioned run goes once with fewer
// threads than partitions and once with one thread per partition. Which
// stream a record lands in is fixed by the hook its component bound at
// construction, not by the thread that runs the partition.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "testbed/experiment.h"
#include "testbed/pdes_clusters.h"
#include "testbed/testbed.h"
#include "trace/merge.h"
#include "trace/reader.h"

namespace cmap::testbed {
namespace {

constexpr int kPartitions = 4;

// One record, flattened to a comparable string: category, tick, and the
// decoded body fields (not raw bytes — the tick delta encoding differs
// between files, the fields must not).
std::string fingerprint(const trace::Record& r) {
  std::ostringstream out;
  out << static_cast<int>(r.category) << '@' << r.tick << ':';
  std::visit(
      [&](const auto& b) {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, trace::PhyTxRecord>) {
          out << b.node << ',' << b.frame_id << ',' << b.rate << ','
              << b.bytes << ',' << b.duration;
        } else if constexpr (std::is_same_v<T, trace::PhyRxRecord>) {
          out << b.node << ',' << b.frame_id << ',' << b.tx_node << ','
              << b.ok << ',' << b.min_sinr_cdb;
        } else if constexpr (std::is_same_v<T, trace::PhyCollisionRecord>) {
          out << b.node << ',' << b.frame_id << ','
              << static_cast<int>(b.reason);
        } else if constexpr (std::is_same_v<T, trace::MacDeferRecord>) {
          out << b.node << ',' << b.dst << ',' << b.deferred << ','
              << static_cast<int>(b.reason) << ',' << b.blocker_src << ','
              << b.blocker_dst << ',' << b.until;
        } else if constexpr (std::is_same_v<T, trace::DeferTableRecord>) {
          out << b.node << ',' << static_cast<int>(b.op) << ',' << b.dst
              << ',' << b.src << ',' << b.via << ',' << b.my_rate << ','
              << b.their_rate << ',' << b.expires;
        } else if constexpr (std::is_same_v<T, trace::OngoingRecord>) {
          out << b.node << ',' << static_cast<int>(b.op) << ',' << b.src
              << ',' << b.dst << ',' << b.end_time;
        } else if constexpr (std::is_same_v<T, trace::MoveRecord>) {
          out << b.node << ',' << b.x_mm << ',' << b.y_mm;
        } else if constexpr (std::is_same_v<T, trace::ChannelEpochRecord>) {
          out << b.epoch;
        }
      },
      r.body);
  return out.str();
}

// The node a record belongs to, when it names one (channel-epoch records
// are global; they participate in the per-tick check only).
std::optional<std::uint32_t> record_node(const trace::Record& r) {
  return std::visit(
      [](const auto& b) -> std::optional<std::uint32_t> {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, trace::ChannelEpochRecord>) {
          return std::nullopt;
        } else {
          return b.node;
        }
      },
      r.body);
}

std::vector<trace::Record> read_checked(const std::string& path) {
  std::string error;
  auto records = trace::read_all(path, &error);
  EXPECT_TRUE(error.empty()) << path << ": " << error;
  return records;
}

// Random flow set: 4 to 8 of the building's ten cluster flows, each in a
// random direction. Two flows per cluster, so at least two clusters, and
// with them at least two partitions, carry traffic.
std::vector<Flow> fuzz_flows(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Flow> pool = pdes_test::cluster_flows(pdes_test::sparse_building());
  std::vector<Flow> flows;
  const auto count = static_cast<std::size_t>(rng.uniform_int(4, 8));
  while (flows.size() < count) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
    Flow f = pool[i];
    if (rng.uniform_int(0, 1) == 1) std::swap(f.src, f.dst);
    flows.push_back(f);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return flows;
}

RunConfig traced_config(std::uint64_t seed, const std::string& trace_path,
                        int partitions, int threads) {
  RunConfig config;
  config.scheme = Scheme::kCmap;
  config.duration = sim::milliseconds(120);
  config.warmup = sim::milliseconds(30);
  config.seed = seed;
  config.trace = trace::TraceConfig{};
  config.trace->path = trace_path;
  config.pdes.partitions = partitions;
  config.pdes.threads = threads;
  return config;
}

TEST(PdesTraceFuzz, PartitionedEventOrderMatchesSerial) {
  const Testbed& tb = pdes_test::sparse_building();
  for (const int threads : {2, kPartitions}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (std::uint64_t seed : {11u, 29u, 47u}) {
      const std::string dir = ::testing::TempDir();
      const std::string serial_path =
          dir + "pdes_fuzz_serial_" + std::to_string(seed) + ".cmtrace";
      const std::string pdes_path =
          dir + "pdes_fuzz_part_" + std::to_string(seed) + ".cmtrace";
      const std::string merged_path =
          dir + "pdes_fuzz_merged_" + std::to_string(seed) + ".cmtrace";
      const std::vector<Flow> flows = fuzz_flows(seed);

      run_flows(tb, flows, traced_config(seed, serial_path, 1, 1));
      run_flows(tb, flows,
                traced_config(seed, pdes_path, kPartitions, threads));

      std::vector<std::string> inputs = {pdes_path};
      for (int p = 0; p < kPartitions; ++p) {
        inputs.push_back(pdes_path + ".p" + std::to_string(p));
      }
      std::string error;
      ASSERT_TRUE(trace::merge_streams(inputs, merged_path, &error)) << error;

      // Non-vacuity: the partitioned run must actually have split its
      // records across per-partition streams.
      int populated = 0;
      for (int p = 0; p < kPartitions; ++p) {
        if (!read_checked(pdes_path + ".p" + std::to_string(p)).empty()) {
          ++populated;
        }
      }
      EXPECT_GE(populated, 2) << "seed " << seed;

      const auto serial = read_checked(serial_path);
      const auto merged = read_checked(merged_path);
      ASSERT_GT(serial.size(), 100u) << "vacuous fuzz: seed " << seed;
      EXPECT_EQ(serial.size(), merged.size());

      // Per-node order: each node's record sequence must match exactly.
      std::map<std::uint32_t, std::vector<std::string>> by_node_serial;
      std::map<std::uint32_t, std::vector<std::string>> by_node_merged;
      // Per-tick content: the multiset of records at each instant.
      std::map<sim::Time, std::multiset<std::string>> by_tick_serial;
      std::map<sim::Time, std::multiset<std::string>> by_tick_merged;
      for (const auto& r : serial) {
        if (const auto node = record_node(r)) {
          by_node_serial[*node].push_back(fingerprint(r));
        }
        by_tick_serial[r.tick].insert(fingerprint(r));
      }
      for (const auto& r : merged) {
        if (const auto node = record_node(r)) {
          by_node_merged[*node].push_back(fingerprint(r));
        }
        by_tick_merged[r.tick].insert(fingerprint(r));
      }
      EXPECT_EQ(by_node_serial, by_node_merged) << "seed " << seed;
      EXPECT_EQ(by_tick_serial, by_tick_merged) << "seed " << seed;

      std::remove(serial_path.c_str());
      std::remove(merged_path.c_str());
      for (const auto& p : inputs) std::remove(p.c_str());
    }
  }
}

// The stream a record lands in is fixed by the hook its component bound at
// construction, whichever thread runs the partition: every phy_tx of a
// partitioned run sits in its sender's partition stream, none in the
// global one, and none is lost or duplicated.
TEST(PdesTraceStreams, PhyTxLandsInItsSendersPartitionStream) {
  const Testbed& tb = pdes_test::sparse_building();
  const std::string path =
      ::testing::TempDir() + "pdes_phy_tx_streams.cmtrace";

  std::uint64_t frames_sent = 0;
  std::map<phy::NodeId, int> partition_of;  // the World's own plan
  {
    World world(tb, traced_config(11, path, kPartitions, kPartitions));
    for (const Flow& f : fuzz_flows(11)) {
      world.add_saturated_flow(f.src, f.dst);
      partition_of[f.src];
      partition_of[f.dst];
    }
    world.run(world.config().duration);
    for (auto& [id, part] : partition_of) {
      frames_sent += world.radio(id).counters().frames_sent;
      part = world.medium().partition_of(id);
    }
  }  // tracers flush on destruction

  for (const auto& r : read_checked(path)) {
    EXPECT_NE(r.category, trace::Category::kPhyTx) << "global stream";
  }
  std::uint64_t traced = 0;
  int populated = 0;
  for (int p = 0; p < kPartitions; ++p) {
    const std::string part_path = path + ".p" + std::to_string(p);
    std::uint64_t here = 0;
    for (const auto& r : read_checked(part_path)) {
      if (r.category != trace::Category::kPhyTx) continue;
      const auto node = std::get<trace::PhyTxRecord>(r.body).node;
      EXPECT_EQ(partition_of.at(node), p) << "node " << node;
      ++here;
    }
    traced += here;
    if (here > 0) ++populated;
    std::remove(part_path.c_str());
  }
  std::remove(path.c_str());
  EXPECT_GE(populated, 2);  // non-vacuity: senders span partitions
  EXPECT_GT(frames_sent, 0u);
  EXPECT_EQ(traced, frames_sent);
}

}  // namespace
}  // namespace cmap::testbed

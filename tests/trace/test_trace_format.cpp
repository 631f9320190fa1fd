// Wire-format unit tests for the trace subsystem: varint/zigzag edge
// cases, per-category encode/decode round trips through an in-memory
// sink, header validation, loud failure on truncated or corrupt input,
// and every-Nth sampling. The writer and reader share wire.h helpers, so
// these tests pin the format both sides implement.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "trace/reader.h"
#include "trace/trace.h"

namespace cmap::trace {
namespace {

TEST(Varint, RoundTripEdgeValues) {
  const std::uint64_t values[] = {
      0,     1,     127,        128,
      16383, 16384, 0xffffffffu, 0x100000000ull,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    wire::put_varint(buf, v);
    std::size_t pos = 0;
    std::uint64_t out = 0;
    ASSERT_TRUE(wire::get_varint(buf.data(), buf.size(), &pos, &out))
        << "value " << v;
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(Varint, EncodedLengthBoundaries) {
  auto length_of = [](std::uint64_t v) {
    std::vector<std::uint8_t> buf;
    wire::put_varint(buf, v);
    return buf.size();
  };
  EXPECT_EQ(length_of(0), 1u);
  EXPECT_EQ(length_of(127), 1u);
  EXPECT_EQ(length_of(128), 2u);
  EXPECT_EQ(length_of(16383), 2u);
  EXPECT_EQ(length_of(16384), 3u);
  EXPECT_EQ(length_of(std::numeric_limits<std::uint64_t>::max()), 10u);
}

TEST(Varint, TruncatedDecodeFails) {
  std::vector<std::uint8_t> buf;
  wire::put_varint(buf, 16384);  // 3 bytes
  for (std::size_t keep = 0; keep < buf.size(); ++keep) {
    std::size_t pos = 0;
    std::uint64_t out = 0;
    EXPECT_FALSE(wire::get_varint(buf.data(), keep, &pos, &out))
        << "keep " << keep;
  }
}

TEST(Varint, OverlongDecodeFails) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  const std::vector<std::uint8_t> bad(11, 0x80);
  std::size_t pos = 0;
  std::uint64_t out = 0;
  EXPECT_FALSE(wire::get_varint(bad.data(), bad.size(), &pos, &out));
}

TEST(Zigzag, RoundTripEdgeValues) {
  const std::int64_t values[] = {0,  -1, 1,  -2, 2,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(wire::unzigzag(wire::zigzag(v)), v) << "value " << v;
  }
  // Small magnitudes map to small codes (the property zigzag exists for).
  EXPECT_EQ(wire::zigzag(0), 0u);
  EXPECT_EQ(wire::zigzag(-1), 1u);
  EXPECT_EQ(wire::zigzag(1), 2u);
}

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

TEST(TraceFormat, EmptyTraceIsHeaderOnlyAndDecodes) {
  TraceConfig config;
  config.categories = kPhyCategories;
  config.sample_every[static_cast<std::size_t>(Category::kPhyTx)] = 7;
  MemoryTracer mt(config);
  EXPECT_EQ(mt.tracer->records_written(), 0u);

  TraceReader reader(mt.sink->bytes());
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.categories(), kPhyCategories);
  ASSERT_EQ(reader.sample_every().size(), kCategoryCount);
  EXPECT_EQ(reader.sample_every()[static_cast<std::size_t>(Category::kPhyTx)],
            7u);
  Record r;
  EXPECT_FALSE(reader.next(&r));
  EXPECT_TRUE(reader.ok()) << reader.error();  // clean EOF, not an error
}

TEST(TraceFormat, AllCategoriesRoundTrip) {
  MemoryTracer mt(TraceConfig{});
  Tracer& t = *mt.tracer;
  t.phy_tx(10, 3, 42, 2, 1428, 1928000);
  t.phy_rx(20, 4, 42, 3, true, -1234);
  t.phy_collision(30, 5, 43, CollisionReason::kCaptured);
  t.mac_defer(40, 6, 7, true, DeferReason::kConflictMap, 8, 9, 99999);
  t.defer_table(50, 6, DeferTableOp::kInsert, 0xffffffffu, 8, 9, 2, 0xff,
                123456789);
  t.ongoing(60, 6, OngoingOp::kUpdate, 8, 9, 777);
  t.move(70, 11, 12.345, -0.5);
  t.channel_epoch(80, 17);
  EXPECT_EQ(t.records_written(), 8u);

  TraceReader reader(mt.sink->bytes());
  ASSERT_TRUE(reader.ok()) << reader.error();
  Record r;

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kPhyTx);
  EXPECT_EQ(r.tick, 10);
  {
    const auto& b = std::get<PhyTxRecord>(r.body);
    EXPECT_EQ(b.node, 3u);
    EXPECT_EQ(b.frame_id, 42u);
    EXPECT_EQ(b.rate, 2u);
    EXPECT_EQ(b.bytes, 1428u);
    EXPECT_EQ(b.duration, 1928000);
  }

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kPhyRx);
  EXPECT_EQ(r.tick, 20);
  {
    const auto& b = std::get<PhyRxRecord>(r.body);
    EXPECT_EQ(b.node, 4u);
    EXPECT_EQ(b.frame_id, 42u);
    EXPECT_EQ(b.tx_node, 3u);
    EXPECT_TRUE(b.ok);
    EXPECT_EQ(b.min_sinr_cdb, -1234);
  }

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kPhyCollision);
  EXPECT_EQ(r.tick, 30);
  {
    const auto& b = std::get<PhyCollisionRecord>(r.body);
    EXPECT_EQ(b.node, 5u);
    EXPECT_EQ(b.frame_id, 43u);
    EXPECT_EQ(b.reason, CollisionReason::kCaptured);
  }

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kMacDefer);
  EXPECT_EQ(r.tick, 40);
  {
    const auto& b = std::get<MacDeferRecord>(r.body);
    EXPECT_EQ(b.node, 6u);
    EXPECT_EQ(b.dst, 7u);
    EXPECT_TRUE(b.deferred);
    EXPECT_EQ(b.reason, DeferReason::kConflictMap);
    EXPECT_EQ(b.blocker_src, 8u);
    EXPECT_EQ(b.blocker_dst, 9u);
    EXPECT_EQ(b.until, 99999);
  }

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kDeferTable);
  EXPECT_EQ(r.tick, 50);
  {
    const auto& b = std::get<DeferTableRecord>(r.body);
    EXPECT_EQ(b.node, 6u);
    EXPECT_EQ(b.op, DeferTableOp::kInsert);
    EXPECT_EQ(b.dst, 0xffffffffu);  // the "*" wildcard survives intact
    EXPECT_EQ(b.src, 8u);
    EXPECT_EQ(b.via, 9u);
    EXPECT_EQ(b.my_rate, 2u);
    EXPECT_EQ(b.their_rate, 0xffu);
    EXPECT_EQ(b.expires, 123456789);
  }

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kOngoing);
  EXPECT_EQ(r.tick, 60);
  {
    const auto& b = std::get<OngoingRecord>(r.body);
    EXPECT_EQ(b.node, 6u);
    EXPECT_EQ(b.op, OngoingOp::kUpdate);
    EXPECT_EQ(b.src, 8u);
    EXPECT_EQ(b.dst, 9u);
    EXPECT_EQ(b.end_time, 777);
  }

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kMove);
  EXPECT_EQ(r.tick, 70);
  {
    const auto& b = std::get<MoveRecord>(r.body);
    EXPECT_EQ(b.node, 11u);
    EXPECT_EQ(b.x_mm, 12345);  // metres stored as signed millimetres
    EXPECT_EQ(b.y_mm, -500);
  }

  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kChannelEpoch);
  EXPECT_EQ(r.tick, 80);
  EXPECT_EQ(std::get<ChannelEpochRecord>(r.body).epoch, 17u);

  EXPECT_FALSE(reader.next(&r));
  EXPECT_TRUE(reader.ok()) << reader.error();
}

TEST(TraceFormat, DisabledCategoryWritesNothing) {
  TraceConfig config;
  config.categories = bit(Category::kPhyTx);
  MemoryTracer mt(config);
  mt.tracer->phy_rx(10, 1, 2, 3, true, 0);  // masked out
  mt.tracer->phy_tx(20, 1, 2, 0, 100, 5);
  EXPECT_EQ(mt.tracer->records_written(), 1u);

  TraceReader reader(mt.sink->bytes());
  Record r;
  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kPhyTx);
  EXPECT_FALSE(reader.next(&r));
  EXPECT_TRUE(reader.ok());
}

TEST(TraceFormat, EveryNthSamplingKeepsFirstOfEachStride) {
  TraceConfig config;
  config.sample_every[static_cast<std::size_t>(Category::kPhyTx)] = 3;
  MemoryTracer mt(config);
  for (int i = 0; i < 10; ++i) {
    mt.tracer->phy_tx(i, 1, static_cast<std::uint64_t>(i), 0, 100, 5);
  }
  EXPECT_EQ(mt.tracer->records_written(), 4u);  // i = 0, 3, 6, 9

  TraceReader reader(mt.sink->bytes());
  Record r;
  std::vector<std::uint64_t> kept;
  while (reader.next(&r)) kept.push_back(std::get<PhyTxRecord>(r.body).frame_id);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{0, 3, 6, 9}));
}

TEST(TraceFormat, TruncatedStreamFailsLoudly) {
  MemoryTracer mt(TraceConfig{});
  mt.tracer->phy_tx(10, 3, 42, 2, 1428, 1928000);
  mt.tracer->mac_defer(40, 6, 7, false, DeferReason::kNone, 0, 0, 0);
  const std::vector<std::uint8_t>& full = mt.sink->bytes();

  // Chop mid-way through the last record: the first still decodes, then
  // the reader reports an error (never a silent clean EOF).
  std::vector<std::uint8_t> cut(full.begin(), full.end() - 3);
  TraceReader reader(std::move(cut));
  ASSERT_TRUE(reader.ok()) << reader.error();
  Record r;
  ASSERT_TRUE(reader.next(&r));
  EXPECT_EQ(r.category, Category::kPhyTx);
  EXPECT_FALSE(reader.next(&r));
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("truncated"), std::string::npos)
      << reader.error();
}

TEST(TraceFormat, BadMagicRejected) {
  MemoryTracer mt(TraceConfig{});
  std::vector<std::uint8_t> bytes = mt.sink->bytes();
  ASSERT_GE(bytes.size(), 4u);
  bytes[0] = 'X';
  TraceReader reader(std::move(bytes));
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.error().empty());
}

TEST(TraceFormat, MissingFileFailsLoudly) {
  TraceReader reader(std::string("/nonexistent/definitely_not_here.cmtrace"));
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.error().empty());
}

TEST(FileTraceSinkDeathTest, UnwritablePathAbortsNamingThePath) {
  const std::string path = ::testing::TempDir() + "no_such_dir/run.cmtrace";
  EXPECT_DEATH(FileTraceSink{path}, path);
}

TEST(TraceHookTest, UnboundHookWantsNothing) {
  TraceHook hook;
  EXPECT_FALSE(hook.wants(Category::kPhyTx));
  hook.bind(nullptr, 5);
  EXPECT_FALSE(hook.wants(Category::kPhyTx));
}

TEST(TraceHookTest, BindCachesTheMask) {
  TraceConfig config;
  config.categories = bit(Category::kMacDefer);
  MemoryTracer mt(config);
  TraceHook hook;
  hook.bind(mt.tracer.get(), 9);
  EXPECT_TRUE(hook.wants(Category::kMacDefer));
  EXPECT_FALSE(hook.wants(Category::kPhyTx));
  EXPECT_EQ(hook.self, 9u);
  EXPECT_EQ(hook.tracer, mt.tracer.get());
}

}  // namespace
}  // namespace cmap::trace

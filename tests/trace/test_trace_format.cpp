// Wire-format unit tests for the trace subsystem: varint/zigzag edge
// cases, per-category encode/decode round trips through an in-memory
// sink, header validation, loud failure on truncated or corrupt input,
// and every-Nth sampling. The writer and reader share each record's field
// list, so the round trips alone would pass for a layout change made on
// both sides; BytesMatchTheCommittedEncoding pins the bytes themselves,
// and TextAndJsonMatchTheCommittedLines the two trace_dump renderings.
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

/// One record of each category, ticks 10..80: the stream
/// AllCategoriesRoundTrip decodes and BytesMatchTheCommittedEncoding pins.
void write_one_of_each(Tracer& t) {
  t.record(10, PhyTxRecord{3, 42, 2, 1428, 1928000});
  t.record(20, PhyRxRecord{4, 42, 3, true, -1234});
  t.record(30, PhyCollisionRecord{5, 43, CollisionReason::kCaptured});
  t.record(40,
           MacDeferRecord{6, 7, true, DeferReason::kConflictMap, 8, 9, 99999});
  t.record(50, DeferTableRecord{6, DeferTableOp::kInsert, 0xffffffffu, 8, 9,
                                2, 0xff, 123456789});
  t.record(60, OngoingRecord{6, OngoingOp::kUpdate, 8, 9, 777});
  t.record(70, MoveRecord::from_metres(11, 12.345, -0.5));
  t.record(80, ChannelEpochRecord{17});
}

TEST(TraceFormat, AllCategoriesRoundTrip) {
  MemoryTracer mt(TraceConfig{});
  Tracer& t = *mt.tracer;
  write_one_of_each(t);
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

// The exact encoding, header included, of version 1 as first released.
// The round-trip tests above pass for any writer/reader pair that agree
// with each other; this one fails if the pair changes the bytes together.
TEST(TraceFormat, BytesMatchTheCommittedEncoding) {
  MemoryTracer mt(TraceConfig{});
  write_one_of_each(*mt.tracer);
  std::string hex;
  for (const std::uint8_t b : mt.sink->bytes()) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  EXPECT_EQ(hex,
            "434d545201ff01080101010101010101"  // magic, v1, mask, sampling
            "0a000a032a02940bc0d675"            // phy_tx
            "08010a042a0301a313"                // phy_rx
            "05020a052b01"                      // phy_collision
            "0b030a0607010208099f8d06"          // mac_defer
            "12040a0600ffffffff0f080902ff01959aef3a"  // defer_table
            "08050a060108098906"                // ongoing
            "08060a0bf2c001e707"                // move
            "03070a11");                        // channel_epoch
}

TEST(TraceFormat, TextAndJsonMatchTheCommittedLines) {
  MemoryTracer mt(TraceConfig{});
  write_one_of_each(*mt.tracer);
  TraceReader reader(mt.sink->bytes());
  std::vector<std::string> text, json;
  Record r;
  while (reader.next(&r)) {
    text.push_back(describe(r));
    json.push_back(to_json(r));
  }
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(text, (std::vector<std::string>{
      "            10 phy_tx        node=3 frame=42 rate=2 bytes=1428"
      " dur=1928000",
      "            20 phy_rx        node=4 frame=42 from=3 ok=1"
      " min_sinr=-12.34dB",
      "            30 phy_collision node=5 frame=43 reason=captured",
      "            40 mac_defer     node=6 dst=7 decision=defer"
      " reason=conflict_map blocker=8->9 until=99999",
      "            50 defer_table   node=6 op=insert pattern=(*: 8->9)"
      " rates=2/255 expires=123456789",
      "            60 ongoing       node=6 op=update tx=8->9 end=777",
      "            70 move          node=11 x=12.345m y=-0.500m",
      "            80 channel_epoch epoch=17"}));
  EXPECT_EQ(json, (std::vector<std::string>{
      R"({"tick":10,"category":"phy_tx","node":3,"frame":42,"rate":2,)"
      R"("bytes":1428,"duration":1928000})",
      R"({"tick":20,"category":"phy_rx","node":4,"frame":42,"from":3,)"
      R"("ok":true,"min_sinr_cdb":-1234})",
      R"({"tick":30,"category":"phy_collision","node":5,"frame":43,)"
      R"("reason":"captured"})",
      R"({"tick":40,"category":"mac_defer","node":6,"dst":7,)"
      R"("deferred":true,"reason":"conflict_map","blocker_src":8,)"
      R"("blocker_dst":9,"until":99999})",
      R"({"tick":50,"category":"defer_table","node":6,"op":"insert",)"
      R"("dst":4294967295,"src":8,"via":9,"my_rate":2,"their_rate":255,)"
      R"("expires":123456789})",
      R"({"tick":60,"category":"ongoing","node":6,"op":"update","src":8,)"
      R"("dst":9,"end":777})",
      R"({"tick":70,"category":"move","node":11,"x_mm":12345,)"
      R"("y_mm":-500})",
      R"({"tick":80,"category":"channel_epoch","epoch":17})"}));
}

TEST(TraceFormat, DisabledCategoryWritesNothing) {
  TraceConfig config;
  config.categories = bit(Category::kPhyTx);
  MemoryTracer mt(config);
  mt.tracer->record(10, PhyRxRecord{1, 2, 3, true, 0});  // masked out
  mt.tracer->record(20, PhyTxRecord{1, 2, 0, 100, 5});
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
    mt.tracer->record(
        i, PhyTxRecord{1, static_cast<std::uint64_t>(i), 0, 100, 5});
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
  mt.tracer->record(10, PhyTxRecord{3, 42, 2, 1428, 1928000});
  mt.tracer->record(40,
                    MacDeferRecord{6, 7, false, DeferReason::kNone, 0, 0, 0});
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

// A record whose length prefix disagrees with its field list, or whose
// category the reader does not know, stops the stream with an error.
TEST(TraceFormat, MalformedPayloadAndUnknownCategoryFailLoudly) {
  const auto first_error = [](std::vector<std::uint8_t> record) {
    MemoryTracer mt(TraceConfig{});
    std::vector<std::uint8_t> bytes = mt.sink->bytes();
    bytes.insert(bytes.end(), record.begin(), record.end());
    TraceReader reader(std::move(bytes));
    Record r;
    EXPECT_FALSE(reader.next(&r));
    return reader.error();
  };
  // channel_epoch at tick 10 carrying epoch 17 (03 07 0a 11), then with
  // one trailing byte and with the epoch missing.
  EXPECT_EQ(first_error({0x04, 0x07, 0x0a, 0x11, 0x00}),
            "malformed channel_epoch payload at byte 16");
  EXPECT_EQ(first_error({0x02, 0x07, 0x0a}),
            "malformed channel_epoch payload at byte 16");
  EXPECT_EQ(first_error({0x02, 0x08, 0x0a}),
            "unknown category 8 at byte 16");
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

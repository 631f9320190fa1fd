// trace::merge_streams unit coverage: k-way interleaving on (tick, input
// index), payload re-emission (fields survive a merge's decode and
// re-encode bit for bit — the move record's mm quantization is the
// sensitive case), sampled inputs (kept as written, rate declared),
// header handling (category-mask union), and the error paths (no inputs,
// missing file).
#include "trace/merge.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "trace/reader.h"
#include "trace/trace.h"

namespace cmap::trace {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(MergeStreams, InterleavesByTickWithInputIndexTieBreak) {
  const std::string a_path = temp_path("merge_a.cmtrace");
  const std::string b_path = temp_path("merge_b.cmtrace");
  const std::string out_path = temp_path("merge_out.cmtrace");
  {
    TraceConfig ca;
    ca.path = a_path;
    Tracer a(ca);
    a.record(10, ChannelEpochRecord{1});
    // Ties with b's t=30 record; input 0 wins.
    a.record(30, ChannelEpochRecord{3});
  }
  {
    TraceConfig cb;
    cb.path = b_path;
    Tracer b(cb);
    b.record(20, ChannelEpochRecord{2});
    b.record(30, ChannelEpochRecord{4});
  }
  std::string error;
  ASSERT_TRUE(merge_streams({a_path, b_path}, out_path, &error)) << error;

  auto records = read_all(out_path, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(records.size(), 4u);
  std::vector<std::uint64_t> epochs;
  for (const auto& r : records) {
    epochs.push_back(std::get<ChannelEpochRecord>(r.body).epoch);
    EXPECT_EQ(r.category, Category::kChannelEpoch);
  }
  EXPECT_EQ(epochs, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(records[0].tick, 10);
  EXPECT_EQ(records[3].tick, 30);

  for (const auto& p : {a_path, b_path, out_path}) std::remove(p.c_str());
}

TEST(MergeStreams, PayloadsSurviveVerbatimAndMasksUnion) {
  const std::string a_path = temp_path("merge_raw_a.cmtrace");
  const std::string b_path = temp_path("merge_raw_b.cmtrace");
  const std::string out_path = temp_path("merge_raw_out.cmtrace");
  {
    TraceConfig ca;
    ca.path = a_path;
    ca.categories = bit(Category::kMove);
    Tracer a(ca);
    // 0.0015 m -> 1 mm (truncation). The merge re-encodes the decoded mm
    // value, which is lossless; re-quantizing a reconstructed double would
    // not be.
    a.record(5, MoveRecord::from_metres(7, 0.0015, -3.9994));
  }
  {
    TraceConfig cb;
    cb.path = b_path;
    cb.categories = bit(Category::kPhyTx);
    Tracer b(cb);
    b.record(6, PhyTxRecord{2, 0x123456789abcull, 4, 1400, 2000});
  }
  std::string error;
  ASSERT_TRUE(merge_streams({a_path, b_path}, out_path, &error)) << error;

  TraceReader reader(out_path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.categories(), bit(Category::kMove) | bit(Category::kPhyTx));
  Record r;
  ASSERT_TRUE(reader.next(&r));
  const auto& mv = std::get<MoveRecord>(r.body);
  EXPECT_EQ(mv.node, 7u);
  EXPECT_EQ(mv.x_mm, 1);
  EXPECT_EQ(mv.y_mm, -3999);
  ASSERT_TRUE(reader.next(&r));
  const auto& tx = std::get<PhyTxRecord>(r.body);
  EXPECT_EQ(tx.frame_id, 0x123456789abcull);
  EXPECT_EQ(tx.bytes, 1400u);
  EXPECT_FALSE(reader.next(&r));
  EXPECT_TRUE(reader.ok()) << reader.error();

  for (const auto& p : {a_path, b_path, out_path}) std::remove(p.c_str());
}

TEST(MergeStreams, KeepsSampledRecordsAndDeclaresTheInputsRate) {
  // Each input keeps every second of its four phy_tx records; the merge
  // must keep all four it is given, not sample them again.
  const std::string a_path = temp_path("merge_sampled_a.cmtrace");
  const std::string b_path = temp_path("merge_sampled_b.cmtrace");
  const std::string out_path = temp_path("merge_sampled_out.cmtrace");
  const auto phy_tx = static_cast<std::size_t>(Category::kPhyTx);
  for (const auto& [path, node] : {std::pair{a_path, 1u}, {b_path, 2u}}) {
    TraceConfig c;
    c.path = path;
    c.sample_every[phy_tx] = 2;
    Tracer t(c);
    for (std::uint64_t i = 0; i < 4; ++i) {
      t.record(static_cast<sim::Time>(10 * i + node),
               PhyTxRecord{node, i, 4, 1400, 2000});
    }
  }
  std::string error;
  ASSERT_TRUE(merge_streams({a_path, b_path}, out_path, &error)) << error;

  TraceReader reader(out_path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.sample_every()[phy_tx], 2u);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> got;  // (node, frame)
  Record r;
  while (reader.next(&r)) {
    const auto& tx = std::get<PhyTxRecord>(r.body);
    got.push_back({tx.node, tx.frame_id});
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want = {
      {1, 0}, {2, 0}, {1, 2}, {2, 2}};
  EXPECT_EQ(got, want);

  for (const auto& p : {a_path, b_path, out_path}) std::remove(p.c_str());
}

TEST(MergeStreams, ReportsMissingInputWithoutCreatingOutput) {
  const std::string out_path = temp_path("merge_err_out.cmtrace");
  std::string error;
  EXPECT_FALSE(merge_streams({temp_path("nonexistent.cmtrace")}, out_path,
                             &error));
  EXPECT_FALSE(error.empty());
  std::FILE* f = std::fopen(out_path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);  // header errors precede output creation
  if (f != nullptr) std::fclose(f);

  EXPECT_FALSE(merge_streams({}, out_path, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace cmap::trace

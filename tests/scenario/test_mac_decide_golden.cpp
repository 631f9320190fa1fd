// Per-decision exactness of the CMAP send decision (§3.2) against the
// test-only oracle in tests/oracles/defer_oracle.h. Every sweep run traces
// kMacCategories unsampled; each node's ongoing list and defer table are
// rebuilt from its trace (trace::OngoingReplay, DeferTableReplay), and
// every kMacDefer record is decided again by the oracle. The deferral bit
// and recheck time must match exactly, and the recorded blocker must be
// one of the transmissions the oracle says block, for the same reason.
//
// The traced sweep's report must also equal the untraced sweep's byte for
// byte: tracing a decision re-walks the ongoing ring, and the decisions
// checked here must be the ones behind the reported numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "oracles/defer_oracle.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "stats/report.h"
#include "testbed/testbed.h"
#include "trace/reader.h"

namespace cmap::scenario {
namespace {

struct Tally {
  std::uint64_t decisions = 0;
  std::uint64_t dst_busy = 0;
  std::uint64_t conflict_map = 0;
};

// Ongoing records carry no data rate, so the replayed state can only be
// decided without §3.5 rate annotation; the sweeps count every run that
// turns it on and the tests require that count to be zero.
struct RunCounts {
  std::atomic<int> runs{0};
  std::atomic<int> annotated{0};
};

// One unlabeled variant applies `knob` (when set) and lets `counts` see
// the RunConfig every run gets.
Sweep make_sweep(const char* scenario, std::vector<testbed::Scheme> schemes,
                 int topologies, sim::Time duration,
                 std::function<void(testbed::RunConfig&)> knob,
                 RunCounts* counts) {
  Sweep sweep;
  sweep.scenario = scenario;
  sweep.schemes = std::move(schemes);
  sweep.variants = {{"", [knob, counts](testbed::RunConfig& c) {
                       if (knob) knob(c);
                       ++counts->runs;
                       if (c.cmap.annotate_rates) ++counts->annotated;
                     }}};
  sweep.topologies = topologies;
  sweep.duration = duration;
  sweep.warmup = duration / 4;
  return sweep;
}

void check_trace(const std::string& path, Tally* tally) {
  trace::TraceReader reader(path);
  ASSERT_TRUE(reader.ok()) << path << ": " << reader.error();
  for (const trace::Category c :
       {trace::Category::kMacDefer, trace::Category::kDeferTable,
        trace::Category::kOngoing}) {
    ASSERT_EQ(reader.sample_every()[static_cast<std::size_t>(c)], 1u)
        << path << ": replay needs " << trace::category_name(c)
        << " unsampled";
  }
  trace::OngoingReplay ongoing;
  trace::DeferTableReplay table;
  trace::Record r;
  while (reader.next(&r)) {
    ongoing.apply(r);
    table.apply(r);
    if (r.category != trace::Category::kMacDefer) continue;
    const auto& rec = std::get<trace::MacDeferRecord>(r.body);

    std::vector<core::OngoingTx> live;
    for (const auto& e : ongoing.live(rec.node, r.tick)) {
      core::OngoingTx tx;
      tx.src = e.src;
      tx.dst = e.dst;
      tx.end_time = e.end_time;
      live.push_back(tx);
    }
    std::vector<core::DeferEntry> entries;
    for (const auto& e : table.live(rec.node, r.tick)) {
      entries.push_back(core::DeferEntry{
          e.dst, e.src, e.via, static_cast<phy::WifiRate>(e.my_rate),
          static_cast<phy::WifiRate>(e.their_rate), e.expires});
    }
    const std::vector<oracles::Blocker> blockers =
        oracles::blockers(live, entries, rec.node, /*annotate_rates=*/false,
                          rec.dst, core::kAnyRate, r.tick);
    const core::DeferDecision expect = oracles::decide(blockers);

    ++tally->decisions;
    const std::string where = path + ": " + trace::describe(r);
    ASSERT_EQ(rec.deferred, expect.defer) << where;
    ASSERT_EQ(rec.until, expect.until) << where;
    if (!rec.deferred) continue;
    const auto hit = std::find_if(
        blockers.begin(), blockers.end(), [&](const oracles::Blocker& b) {
          return b.src == rec.blocker_src && b.dst == rec.blocker_dst;
        });
    ASSERT_NE(hit, blockers.end()) << "recorded blocker does not block: "
                                   << where;
    ASSERT_EQ(hit->reason, rec.reason) << where;
    if (rec.reason == trace::DeferReason::kDstBusy) ++tally->dst_busy;
    if (rec.reason == trace::DeferReason::kConflictMap) ++tally->conflict_map;
  }
  ASSERT_TRUE(reader.error().empty()) << path << ": " << reader.error();
}

// Runs `sweep` untraced and traced, requires identical reports, and checks
// every traced decision against the oracle.
void check_sweep(Sweep sweep, const testbed::Testbed& tb,
                 const std::string& tag, Tally* tally) {
  const std::string untraced = SweepRunner(1).run(sweep, tb).to_json();

  const std::string dir = ::testing::TempDir() + "mac_decide_" + tag;
  std::filesystem::create_directories(dir);
  sweep.trace = trace::TraceConfig{};
  sweep.trace->path = dir;
  sweep.trace->categories = trace::kMacCategories;
  const std::string traced = SweepRunner(1).run(sweep, tb).to_json();
  EXPECT_FALSE(untraced.empty());
  EXPECT_EQ(untraced, traced);

  const auto topologies = SweepRunner::draw_topologies(sweep, tb);
  const auto specs =
      SweepRunner::expand(sweep, static_cast<int>(topologies.size()));
  ASSERT_FALSE(specs.empty());
  for (const RunSpec& spec : specs) {
    check_trace(trace_run_path(dir, sweep.scenario, spec), tally);
    if (::testing::Test::HasFatalFailure()) break;
  }
  std::filesystem::remove_all(dir);
}

// Not vacuous: decisions were checked, and nothing ran with rates.
void expect_covered(const Tally& tally, const RunCounts& counts) {
  EXPECT_GT(counts.runs.load(), 0);
  EXPECT_EQ(counts.annotated.load(), 0) << "annotate_rates must stay false";
  EXPECT_GT(tally.decisions, 0u);
}

class MacDecideGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(MacDecideGolden, FigureSweepReportIsByteIdentical) {
  const testbed::Testbed tb{testbed::TestbedConfig{}};
  RunCounts counts;
  Tally tally;
  check_sweep(make_sweep(GetParam(),
                         {testbed::Scheme::kCmap,
                          testbed::Scheme::kCmapIntegrated},
                         3, sim::seconds(2), nullptr, &counts),
              tb, GetParam(), &tally);
  expect_covered(tally, counts);
}

INSTANTIATE_TEST_SUITE_P(FigureBenches, MacDecideGolden,
                         ::testing::Values("fig12_exposed", "fig15_hidden"));

TEST(MacDecideGoldenFlows, HighConcurrencySweepReportIsByteIdentical) {
  // flows_50: 50 concurrent flows on the canonical 100-node building —
  // the decision path under real load, where receivers are often busy.
  // CMAP with per-destination queues exercises the multi-destination
  // decision scan as well.
  const Scenario& sc = ScenarioRegistry::global().at("flows_50");
  ASSERT_TRUE(sc.testbed.has_value());
  const auto tb = testbed::TestbedCache::global().get(*sc.testbed);
  RunCounts counts;
  Tally tally;
  check_sweep(make_sweep("flows_50", {testbed::Scheme::kCmap}, 2,
                         sim::seconds(1),
                         [](testbed::RunConfig& c) {
                           c.cmap.per_dest_queues = true;
                         },
                         &counts),
              *tb, "flows_50", &tally);
  expect_covered(tally, counts);
  EXPECT_GT(tally.dst_busy, 0u);
}

TEST(MacDecideGoldenConflictMap, InRangeSendersDeferOnTheConflictMap) {
  // fig13_inrange: senders that hear each other with conflicting
  // receivers (§5.3). Receivers report the losses, the senders learn
  // defer entries, and deferrals follow from the conflict map rather than
  // a busy destination.
  const testbed::Testbed tb{testbed::TestbedConfig{}};
  RunCounts counts;
  Tally tally;
  check_sweep(make_sweep("fig13_inrange",
                         {testbed::Scheme::kCmap,
                          testbed::Scheme::kCmapIntegrated},
                         3, sim::seconds(2), nullptr, &counts),
              tb, "fig13_inrange", &tally);
  expect_covered(tally, counts);
  EXPECT_GT(tally.conflict_map, 0u);
}

}  // namespace
}  // namespace cmap::scenario

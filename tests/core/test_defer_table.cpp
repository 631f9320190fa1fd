#include "core/defer_table.h"

#include <gtest/gtest.h>

#include "oracles/defer_oracle.h"
#include "sim/random.h"
#include "sim/time.h"

namespace cmap::core {
namespace {

constexpr phy::NodeId kMe = 1;
constexpr phy::NodeId kReporter = 2;   // v in the paper's Fig. 4
constexpr phy::NodeId kInterferer = 3; // x
constexpr phy::NodeId kOther = 4;      // y / z

InterfererEntry entry(phy::NodeId source, phy::NodeId interferer) {
  InterfererEntry e;
  e.source = source;
  e.interferer = interferer;
  return e;
}

TEST(DeferTable, Rule1AddsDeferToReporterWhileInterfererActive) {
  // u receives v's list containing (u, x): add (v : x -> *).
  DeferTable t(sim::seconds(10));
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)}, 0);
  ASSERT_EQ(t.size(), 1u);
  // Defer pattern 2: sending to v while x transmits to anyone.
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, kOther, 1));
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, 17, 1));
}

TEST(DeferTable, Rule1DoesNotDeferToOtherDestinations) {
  // "u need not defer while transmitting to all destinations, e.g. z."
  DeferTable t(sim::seconds(10));
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)}, 0);
  EXPECT_FALSE(t.should_defer(kOther, kInterferer, 17, 1));
}

TEST(DeferTable, Rule2AddsGlobalDeferWhileVictimTransmissionActive) {
  // x receives v's list containing (u, x): add (* : u -> v).
  DeferTable t(sim::seconds(10));
  const phy::NodeId u = 5;
  t.apply_interferer_list(kMe, kReporter, {entry(u, kMe)}, 0);
  ASSERT_EQ(t.size(), 1u);
  // Defer pattern 1: x must defer to u -> v regardless of x's destination.
  EXPECT_TRUE(t.should_defer(kOther, u, kReporter, 1));
  EXPECT_TRUE(t.should_defer(42, u, kReporter, 1));
}

TEST(DeferTable, Rule2OnlyMatchesTheVictimPair) {
  // "x can transmit freely when u is transmitting to a node other than v."
  DeferTable t(sim::seconds(10));
  const phy::NodeId u = 5;
  t.apply_interferer_list(kMe, kReporter, {entry(u, kMe)}, 0);
  EXPECT_FALSE(t.should_defer(kOther, u, kOther, 1));
  EXPECT_FALSE(t.should_defer(kOther, u, 42, 1));
}

TEST(DeferTable, UninvolvedEntriesAddNothing) {
  DeferTable t(sim::seconds(10));
  t.apply_interferer_list(kMe, kReporter, {entry(7, 8)}, 0);
  EXPECT_EQ(t.size(), 0u);
}

TEST(DeferTable, BothRulesCanFireFromOneList) {
  DeferTable t(sim::seconds(10));
  t.apply_interferer_list(
      kMe, kReporter, {entry(kMe, kInterferer), entry(kOther, kMe)}, 0);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, 9, 1));      // rule 1
  EXPECT_TRUE(t.should_defer(17, kOther, kReporter, 1));          // rule 2
}

TEST(DeferTable, EntriesExpireAfterTtl) {
  DeferTable t(sim::seconds(10));
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)}, 0);
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, kOther,
                             sim::seconds(9)));
  EXPECT_FALSE(t.should_defer(kReporter, kInterferer, kOther,
                              sim::seconds(10)));
  t.expire(sim::seconds(11));
  EXPECT_EQ(t.size(), 0u);
}

TEST(DeferTable, ReapplyRefreshesExpiryWithoutDuplicates) {
  DeferTable t(sim::seconds(10));
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)}, 0);
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)},
                          sim::seconds(8));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, kOther,
                             sim::seconds(15)));
}

TEST(DeferTable, SelfAsBothSourceAndInterfererIgnoredGracefully) {
  DeferTable t(sim::seconds(10));
  // Degenerate entry (me, me) would mean we interfere with ourselves.
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kMe)}, 0);
  // Both rules add their entries; neither should match sending to the
  // reporter while someone ELSE transmits.
  EXPECT_FALSE(t.should_defer(kReporter, kOther, 9, 1));
}

TEST(DeferTableRates, AnnotatedEntriesMatchOnlyObservedRates) {
  DeferTable t(sim::seconds(10), /*annotate_rates=*/true);
  InterfererEntry e = entry(kMe, kInterferer);
  e.source_rate = phy::WifiRate::k6Mbps;      // my rate when it was observed
  e.interferer_rate = phy::WifiRate::k12Mbps; // their rate
  t.apply_interferer_list(kMe, kReporter, {e}, 0);
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, kOther, 1,
                             phy::WifiRate::k6Mbps, phy::WifiRate::k12Mbps));
  // A different rate combination is a different conflict-map cell (§3.5).
  EXPECT_FALSE(t.should_defer(kReporter, kInterferer, kOther, 1,
                              phy::WifiRate::k18Mbps, phy::WifiRate::k12Mbps));
  EXPECT_FALSE(t.should_defer(kReporter, kInterferer, kOther, 1,
                              phy::WifiRate::k6Mbps, phy::WifiRate::k18Mbps));
}

TEST(DeferTableRates, UnannotatedTableIgnoresRates) {
  DeferTable t(sim::seconds(10), /*annotate_rates=*/false);
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)}, 0);
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, kOther, 1,
                             phy::WifiRate::k18Mbps, phy::WifiRate::k54Mbps));
}

// ---- upsert duplicate-key refresh semantics ----

TEST(DeferTableUpsert, RepeatedReportsRefreshTtlWithoutGrowth) {
  DeferTable t(sim::seconds(10));
  // The same conflict re-reported 50 times across 50 seconds: one entry,
  // TTL rolling forward each time. (Queries stay strictly inside the TTL
  // so every round exercises the in-place refresh, not reclaim+insert.)
  sim::Time now = 0;
  for (int round = 0; round < 50; ++round) {
    now = sim::seconds(round);
    t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)}, now);
    ASSERT_EQ(t.size(), 1u) << "round " << round;
    // Live right up to (but excluding) the refreshed expiry.
    EXPECT_TRUE(t.should_defer(kReporter, kInterferer, kOther,
                               now + sim::seconds(10) - 1));
  }
  // The final refresh ages out at exactly now + TTL.
  EXPECT_FALSE(t.should_defer(kReporter, kInterferer, kOther,
                              now + sim::seconds(10)));
  EXPECT_EQ(t.entries().size(), 0u);  // ...and that probe reclaimed it
}

TEST(DeferTableUpsert, RefreshAppliesToLapsedEntriesToo) {
  // A conflict re-reported after its entry lapsed (but before anything
  // reclaimed it) must refresh in place, not duplicate.
  DeferTable t(sim::seconds(10));
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)}, 0);
  t.apply_interferer_list(kMe, kReporter, {entry(kMe, kInterferer)},
                          sim::seconds(30));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.should_defer(kReporter, kInterferer, kOther,
                             sim::seconds(35)));
}

TEST(DeferTableUpsert, DistinctRateAnnotationsAreDistinctEntries) {
  DeferTable t(sim::seconds(10), /*annotate_rates=*/true);
  InterfererEntry a = entry(kMe, kInterferer);
  a.source_rate = phy::WifiRate::k6Mbps;
  a.interferer_rate = phy::WifiRate::k12Mbps;
  InterfererEntry b = a;
  b.source_rate = phy::WifiRate::k18Mbps;  // different conflict-map cell
  t.apply_interferer_list(kMe, kReporter, {a, b}, 0);
  EXPECT_EQ(t.size(), 2u);
  // Re-reporting both refreshes; the table stays at two entries.
  t.apply_interferer_list(kMe, kReporter, {a, b}, sim::seconds(5));
  EXPECT_EQ(t.size(), 2u);
}

TEST(DeferTableUpsert, SizeBoundedByDistinctConflictsUnderChurn) {
  // Invariant: however often lists are (re)applied, the table never holds
  // more than the number of distinct (dst, src, via, rates) conflicts.
  DeferTable t(sim::seconds(5));
  sim::Rng rng(0xb0b);
  constexpr int kReporters = 3;
  constexpr int kInterferers = 4;
  // Distinct rule-1 entries possible: kReporters * kInterferers. Each list
  // also fires rule 2 when the interferer is kMe — excluded by id choice.
  const std::size_t bound = kReporters * kInterferers;
  for (int op = 0; op < 500; ++op) {
    const auto reporter =
        static_cast<phy::NodeId>(100 + rng.uniform_int(0, kReporters - 1));
    const auto interferer =
        static_cast<phy::NodeId>(200 + rng.uniform_int(0, kInterferers - 1));
    const sim::Time now = sim::milliseconds(op * 37);
    t.apply_interferer_list(kMe, reporter, {entry(kMe, interferer)}, now);
    ASSERT_LE(t.size(), bound) << "op " << op;
  }
}

// ---- fast path vs the send-decision oracle's scan ----

TEST(DeferTableOracle, FastAndReferenceAgreeOnAllPatternCombinations) {
  DeferTable t(sim::seconds(10));
  const phy::NodeId u = 5;
  t.apply_interferer_list(
      kMe, kReporter, {entry(kMe, kInterferer), entry(u, kMe)}, 0);
  const phy::NodeId ids[] = {kMe, kReporter, kInterferer, kOther, u, 42,
                             phy::kBroadcastId};
  // Time ascends in the OUTER loop: the fast path reclaims expired entries
  // as it probes, so a query in the past after one in the future would
  // silently drop coverage (both paths would agree on an emptied table).
  for (sim::Time now : {sim::Time{1}, sim::seconds(10) - 1, sim::seconds(10),
                        sim::seconds(11)}) {
    for (phy::NodeId my_dst : ids) {
      for (phy::NodeId p : ids) {
        for (phy::NodeId q : ids) {
          EXPECT_EQ(oracles::should_defer(t, my_dst, p, q, now),
                    t.should_defer(my_dst, p, q, now))
              << my_dst << " " << p << " " << q << " @" << now;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cmap::core

#include "core/ongoing_list.h"

#include <gtest/gtest.h>

namespace cmap::core {
namespace {

VpDescriptor desc(phy::NodeId src, phy::NodeId dst) {
  VpDescriptor d;
  d.src = src;
  d.dst = dst;
  return d;
}

TEST(OngoingList, HeaderOpensEntryUntilAnnouncedEnd) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  EXPECT_TRUE(l.node_busy(1, sim::milliseconds(30)));
  EXPECT_TRUE(l.node_busy(2, sim::milliseconds(30)));
  EXPECT_FALSE(l.node_busy(3, sim::milliseconds(30)));
  EXPECT_FALSE(l.node_busy(1, sim::milliseconds(60)));  // end is exclusive
}

TEST(OngoingList, TrailerClosesEntry) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  // Trailer arrives early (VP shorter than announced): closes at now.
  l.note(desc(1, 2), sim::milliseconds(40));
  EXPECT_FALSE(l.node_busy(1, sim::milliseconds(50)));
}

TEST(OngoingList, ActiveListsOnlyLiveEntries) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(10));
  l.note(desc(3, 4), sim::milliseconds(100));
  const auto at50 = l.active(sim::milliseconds(50));
  ASSERT_EQ(at50.size(), 1u);
  EXPECT_EQ(at50[0].src, 3u);
  EXPECT_EQ(at50[0].dst, 4u);
}

TEST(OngoingList, SamePairUpdatesInPlace) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  l.note(desc(1, 2), sim::milliseconds(120));
  EXPECT_EQ(l.size(), 1u);
  EXPECT_TRUE(l.node_busy(1, sim::milliseconds(90)));
}

TEST(OngoingList, EndOfReportsRemainingEntry) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  EXPECT_EQ(l.end_of(1, 2, sim::milliseconds(30)), sim::milliseconds(60));
  EXPECT_EQ(l.end_of(1, 2, sim::milliseconds(61)), 0);
  EXPECT_EQ(l.end_of(2, 1, sim::milliseconds(30)), 0);
}

TEST(OngoingList, DifferentPairsCoexist) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  l.note(desc(1, 3), sim::milliseconds(80));  // same src, different dst
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.active(sim::milliseconds(70)).size(), 1u);
}

TEST(OngoingList, RateIsTracked) {
  OngoingList l;
  VpDescriptor d = desc(1, 2);
  d.data_rate = phy::WifiRate::k18Mbps;
  l.note(d, sim::milliseconds(60));
  EXPECT_EQ(l.active(0).at(0).data_rate, phy::WifiRate::k18Mbps);
}

// ---- end-time boundary: an entry is live strictly BEFORE its end ----

TEST(OngoingListBoundary, NodeBusyIsExclusiveAtEndTime) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  EXPECT_TRUE(l.node_busy(1, sim::milliseconds(60) - 1));
  EXPECT_FALSE(l.node_busy(1, sim::milliseconds(60)));
  EXPECT_FALSE(l.node_busy(2, sim::milliseconds(60)));
}

TEST(OngoingListBoundary, EndOfIsExclusiveAtEndTime) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  EXPECT_EQ(l.end_of(1, 2, sim::milliseconds(60) - 1), sim::milliseconds(60));
  EXPECT_EQ(l.end_of(1, 2, sim::milliseconds(60)), 0);
}

TEST(OngoingListBoundary, ActiveAndForEachActiveAgreeAtEndTime) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  EXPECT_EQ(l.active(sim::milliseconds(60) - 1).size(), 1u);
  EXPECT_EQ(l.active(sim::milliseconds(60)).size(), 0u);
  int visited = 0;
  l.for_each_active(sim::milliseconds(60), [&](const OngoingTx&) {
    ++visited;
  });
  EXPECT_EQ(visited, 0);
}

// ---- lazy expiry: reads reclaim dead entries without expire() ----

TEST(OngoingListLazy, NodeBusyReclaimsExpiredEntries) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(10));
  l.note(desc(3, 4), sim::milliseconds(100));
  EXPECT_EQ(l.size(), 2u);
  // A read about an unrelated node still sweeps dead entries off the ring.
  EXPECT_FALSE(l.node_busy(9, sim::milliseconds(50)));
  EXPECT_EQ(l.size(), 1u);
}

TEST(OngoingListLazy, EndOfReclaimsExpiredEntries) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(10));
  l.note(desc(3, 4), sim::milliseconds(100));
  EXPECT_EQ(l.end_of(3, 4, sim::milliseconds(50)), sim::milliseconds(100));
  EXPECT_EQ(l.size(), 1u);
}

TEST(OngoingListLazy, ForEachActiveReclaimsAndSlotsAreRecycled) {
  OngoingList l;
  for (phy::NodeId i = 0; i < 8; ++i) {
    l.note(desc(i, 100 + i), sim::milliseconds(10 + i));
  }
  l.for_each_active(sim::milliseconds(13), [](const OngoingTx&) {});
  EXPECT_EQ(l.size(), 4u);  // ends at 10..13 reclaimed
  // New pairs land in recycled slots; the live set stays coherent.
  for (phy::NodeId i = 50; i < 54; ++i) {
    l.note(desc(i, 200 + i), sim::milliseconds(100));
  }
  EXPECT_EQ(l.size(), 8u);
  EXPECT_EQ(l.active(sim::milliseconds(13)).size(), 8u);
  EXPECT_TRUE(l.node_busy(52, sim::milliseconds(50)));
}

TEST(OngoingListLazy, TrailerClosedEntryIsReclaimedOnNextRead) {
  OngoingList l;
  l.note(desc(1, 2), sim::milliseconds(60));
  l.note(desc(1, 2), sim::milliseconds(40));  // trailer closes at now=40ms
  EXPECT_EQ(l.size(), 1u);
  EXPECT_FALSE(l.node_busy(1, sim::milliseconds(40)));
  EXPECT_EQ(l.size(), 0u);
}

// ---- for_each_active vs the retained allocating snapshot ----

TEST(OngoingListOracle, ForEachActiveMatchesActiveSnapshot) {
  OngoingList l;
  // Mixed bag: live, expired, closed, updated-in-place.
  l.note(desc(1, 2), sim::milliseconds(10));
  l.note(desc(3, 4), sim::milliseconds(100));
  l.note(desc(5, 6), sim::milliseconds(70));
  l.note(desc(3, 4), sim::milliseconds(80));  // update in place
  l.note(desc(7, 8), sim::milliseconds(30));
  const sim::Time now = sim::milliseconds(50);
  const auto reference = l.active(now);
  std::vector<OngoingTx> fast;
  l.for_each_active(now, [&](const OngoingTx& tx) { fast.push_back(tx); });
  ASSERT_EQ(fast.size(), reference.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].src, reference[i].src);
    EXPECT_EQ(fast[i].dst, reference[i].dst);
    EXPECT_EQ(fast[i].end_time, reference[i].end_time);
    EXPECT_EQ(fast[i].data_rate, reference[i].data_rate);
  }
  // The walk reclaimed the dead entries; the live set is unchanged.
  EXPECT_EQ(l.size(), fast.size());
  EXPECT_EQ(l.active(now).size(), reference.size());
}

}  // namespace
}  // namespace cmap::core

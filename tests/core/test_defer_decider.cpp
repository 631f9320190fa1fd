// Property tests for the MAC decision fast path: seeded random streams of
// conflict-map operations (interferer-list application, ongoing-list
// notes, eager table expiry, decision queries) asserting after every step
// that the indexed/intrusive fast paths answer byte-identically to the
// send-decision oracle (tests/oracles/defer_oracle.h) — including §3.5
// rate-annotated tables and queries landing exactly on TTL / end-time
// boundaries. Time never rewinds (the simulator's invariant), which is
// what licenses lazy reclamation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/cmap_mac.h"
#include "core/defer_table.h"
#include "core/ongoing_list.h"
#include "oracles/defer_oracle.h"
#include "sim/random.h"
#include "sim/time.h"

namespace cmap::core {
namespace {

constexpr phy::NodeId kSelf = 0;
constexpr int kNodes = 7;  // small universe => dense collisions

phy::NodeId random_node(sim::Rng& rng, bool allow_broadcast = false) {
  if (allow_broadcast && rng.bernoulli(0.1)) return phy::kBroadcastId;
  return static_cast<phy::NodeId>(rng.uniform_int(0, kNodes - 1));
}

phy::WifiRate random_rate(sim::Rng& rng, bool allow_any) {
  static constexpr phy::WifiRate kRates[] = {
      phy::WifiRate::k6Mbps, phy::WifiRate::k12Mbps, phy::WifiRate::k18Mbps};
  if (allow_any && rng.bernoulli(0.25)) return kAnyRate;
  return kRates[rng.uniform_int(0, 2)];
}

class FuzzHarness {
 public:
  FuzzHarness(std::uint64_t seed, bool annotate)
      : rng_(seed),
        annotate_(annotate),
        table_(kTtl, annotate),
        decider_(ongoing_, table_, kSelf, annotate) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const double dice = rng_.uniform();
      if (dice < 0.30) {
        apply_random_list();
      } else if (dice < 0.55) {
        note_random();
      } else if (dice < 0.65) {
        jump_to_boundary();
      } else if (dice < 0.70) {
        table_.expire(now_);
      } else {
        advance();
      }
      check_everything(step);
    }
  }

 private:
  static constexpr sim::Time kTtl = sim::seconds(2);

  void advance() { now_ += rng_.uniform_int(0, sim::milliseconds(300)); }

  void apply_random_list() {
    const phy::NodeId reporter = random_node(rng_);
    std::vector<InterfererEntry> entries;
    const int n = static_cast<int>(rng_.uniform_int(1, 3));
    for (int i = 0; i < n; ++i) {
      InterfererEntry e;
      // Bias toward involving kSelf so both update rules fire often.
      e.source = rng_.bernoulli(0.4) ? kSelf : random_node(rng_);
      e.interferer = rng_.bernoulli(0.4) ? kSelf : random_node(rng_);
      e.source_rate = random_rate(rng_, /*allow_any=*/true);
      e.interferer_rate = random_rate(rng_, /*allow_any=*/true);
      entries.push_back(e);
    }
    table_.apply_interferer_list(kSelf, reporter, entries, now_);
    boundaries_.push_back(now_ + kTtl);
  }

  void note_random() {
    VpDescriptor d;
    d.src = random_node(rng_);
    d.dst = random_node(rng_, /*allow_broadcast=*/true);
    d.data_rate = random_rate(rng_, /*allow_any=*/false);
    // Occasionally a trailer closing the entry at the current time.
    const sim::Time end =
        rng_.bernoulli(0.15)
            ? now_
            : now_ + rng_.uniform_int(1, sim::milliseconds(500));
    ongoing_.note(d, end);
    boundaries_.push_back(end);
  }

  /// Land `now` exactly on a recorded TTL or end-time boundary — the
  /// `expires <= now` / `end_time <= now` edges the fast paths must agree
  /// on to the nanosecond.
  void jump_to_boundary() {
    std::vector<sim::Time> future;
    for (sim::Time b : boundaries_) {
      if (b >= now_) future.push_back(b);
    }
    if (future.empty()) {
      advance();
      return;
    }
    now_ = future[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(future.size()) - 1))];
  }

  void check_everything(int step) {
    // Whole-decision equivalence, several destinations per step.
    for (int i = 0; i < 4; ++i) {
      const phy::NodeId dst = random_node(rng_, /*allow_broadcast=*/true);
      const phy::WifiRate my_rate =
          annotate_ ? random_rate(rng_, /*allow_any=*/true) : kAnyRate;
      const DeferDecision ref =
          oracles::decide(ongoing_, table_, kSelf, annotate_, dst, my_rate,
                          now_);
      const DeferDecision fast = decider_.decide(dst, my_rate, now_);
      ASSERT_EQ(fast.defer, ref.defer)
          << "step " << step << " dst " << dst << " now " << now_;
      if (ref.defer) {
        ASSERT_EQ(fast.until, ref.until)
            << "step " << step << " dst " << dst << " now " << now_;
        ASSERT_EQ(fast.reason, ref.reason)
            << "step " << step << " dst " << dst << " now " << now_;
        ASSERT_EQ(fast.blocker_src, ref.blocker_src)
            << "step " << step << " dst " << dst << " now " << now_;
        ASSERT_EQ(fast.blocker_dst, ref.blocker_dst)
            << "step " << step << " dst " << dst << " now " << now_;
      }
    }
    // Raw table queries, including pairs that are not ongoing.
    for (int i = 0; i < 4; ++i) {
      const phy::NodeId my_dst = random_node(rng_, true);
      const phy::NodeId p = random_node(rng_);
      const phy::NodeId q = random_node(rng_, true);
      const phy::WifiRate mr = random_rate(rng_, true);
      const phy::WifiRate tr = random_rate(rng_, true);
      ASSERT_EQ(oracles::should_defer(table_, my_dst, p, q, now_, mr, tr),
                table_.should_defer(my_dst, p, q, now_, mr, tr))
          << "step " << step << " (" << my_dst << "," << p << "," << q
          << ") now " << now_;
    }
    // Ongoing-list reads vs the allocating snapshot.
    const auto snapshot = ongoing_.active(now_);
    for (phy::NodeId n = 0; n < kNodes; ++n) {
      const bool expect =
          std::any_of(snapshot.begin(), snapshot.end(),
                      [n](const OngoingTx& tx) {
                        return tx.src == n || tx.dst == n;
                      });
      ASSERT_EQ(ongoing_.node_busy(n, now_), expect)
          << "step " << step << " node " << n << " now " << now_;
    }
    {
      const phy::NodeId src = random_node(rng_);
      const phy::NodeId dst = random_node(rng_, true);
      sim::Time expect = 0;
      for (const auto& tx : snapshot) {
        if (tx.src == src && tx.dst == dst) {
          expect = tx.end_time;
          break;
        }
      }
      ASSERT_EQ(ongoing_.end_of(src, dst, now_), expect)
          << "step " << step << " now " << now_;
    }
    // Accounting stays coherent under lazy reclamation.
    ASSERT_EQ(table_.size(), table_.entries().size());
    ASSERT_GE(ongoing_.size(), snapshot.size());
  }

  sim::Rng rng_;
  bool annotate_;
  sim::Time now_ = 0;
  DeferTable table_;
  OngoingList ongoing_;
  DeferDecider decider_;
  std::vector<sim::Time> boundaries_;
};

TEST(DeferDeciderFuzz, FastMatchesReferenceUnannotated) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    FuzzHarness h(seed, /*annotate=*/false);
    h.run(600);
  }
}

TEST(DeferDeciderFuzz, FastMatchesReferenceRateAnnotated) {
  for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
    FuzzHarness h(seed, /*annotate=*/true);
    h.run(600);
  }
}

// Focused deterministic cases the fuzz relies on statistically.

TEST(DeferDecider, IdleChannelNeverDefers) {
  DeferTable t(sim::seconds(10));
  OngoingList l;
  const DeferDecider d(l, t, kSelf, false);
  EXPECT_FALSE(d.decide(3, kAnyRate, 0).defer);
  EXPECT_FALSE(oracles::decide(l, t, kSelf, false, 3, kAnyRate, 0).defer);
}

TEST(DeferDecider, OwnTransmissionIsIgnored) {
  DeferTable t(sim::seconds(10));
  OngoingList l;
  VpDescriptor mine;
  mine.src = kSelf;
  mine.dst = 3;
  l.note(mine, sim::seconds(1));
  const DeferDecider d(l, t, kSelf, false);
  // Destination 5 is not a party to our own transmission: clear to send.
  EXPECT_FALSE(d.decide(5, kAnyRate, 0).defer);
}

TEST(DeferDecider, BusyDestinationDefersUntilEarliestConflictEnds) {
  DeferTable t(sim::seconds(10));
  OngoingList l;
  VpDescriptor a;  // 4 -> 3 until 5 ms
  a.src = 4;
  a.dst = 3;
  l.note(a, sim::milliseconds(5));
  VpDescriptor b;  // 3 -> 6 until 2 ms: destination 3 is busy twice over
  b.src = 3;
  b.dst = 6;
  l.note(b, sim::milliseconds(2));
  const DeferDecider d(l, t, kSelf, false);
  const DeferDecision decision = d.decide(3, kAnyRate, 0);
  EXPECT_TRUE(decision.defer);
  EXPECT_EQ(decision.until, sim::milliseconds(2));
  // The first blocker in note order is reported, not the earliest-ending.
  EXPECT_EQ(decision.reason, trace::DeferReason::kDstBusy);
  EXPECT_EQ(decision.blocker_src, 4u);
  EXPECT_EQ(decision.blocker_dst, 3u);
  const DeferDecision ref = oracles::decide(l, t, kSelf, false, 3, kAnyRate, 0);
  EXPECT_TRUE(ref.defer);
  EXPECT_EQ(ref.until, sim::milliseconds(2));
}

TEST(DeferDecider, ConflictMapEntryDefersForUninvolvedDestination) {
  DeferTable t(sim::seconds(10));
  OngoingList l;
  // Rule 2 at kSelf: reporter 2's list says (1, kSelf) conflict — entry
  // (* : 1 -> 2).
  InterfererEntry e;
  e.source = 1;
  e.interferer = kSelf;
  t.apply_interferer_list(kSelf, 2, {e}, 0);
  VpDescriptor d12;  // the victim transmission 1 -> 2 is on the air
  d12.src = 1;
  d12.dst = 2;
  l.note(d12, sim::milliseconds(8));
  const DeferDecider d(l, t, kSelf, false);
  // Destination 5 is idle, but the map forbids transmitting at all.
  const DeferDecision decision = d.decide(5, kAnyRate, sim::milliseconds(1));
  EXPECT_TRUE(decision.defer);
  EXPECT_EQ(decision.until, sim::milliseconds(8));
  EXPECT_EQ(decision.reason, trace::DeferReason::kConflictMap);
  EXPECT_EQ(decision.blocker_src, 1u);
  EXPECT_EQ(decision.blocker_dst, 2u);
  EXPECT_TRUE(oracles::decide(l, t, kSelf, false, 5, kAnyRate,
                              sim::milliseconds(1))
                  .defer);
}

}  // namespace
}  // namespace cmap::core

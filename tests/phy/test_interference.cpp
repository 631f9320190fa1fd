#include "phy/interference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "oracles/interference_oracle.h"
#include "phy/units.h"
#include "sim/random.h"

namespace cmap::phy {
namespace {

Signal make_signal(std::uint64_t id, double power_dbm, sim::Time start,
                   sim::Time end) {
  return Signal{id, dbm_to_mw(power_dbm), start, end};
}

constexpr double kNoiseDbm = -94.0;

TEST(Interference, SinrAgainstNoiseOnly) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  // SINR = -80 - (-94) = 14 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 14.0, 0.01);
}

TEST(Interference, ConcurrentSignalDegradesSinr) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -80.0, 0, 1000));
  // Equal-power interferer dominates noise: SINR ~ 0 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.2);
}

TEST(Interference, PartialOverlapOnlyAffectsOverlap) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -80.0, 500, 1500));
  // Worst chunk has the interferer; clean prefix has 14 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.2);
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 500)), 14.0, 0.01);
}

TEST(Interference, ChunkedSuccessWithThresholdModel) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  ThresholdErrorModel model(3.0);
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -80.0, 500, 700));
  // Collided chunk is below threshold -> whole window fails.
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0).success_prob,
      0.0);
  // Window that avoids the collision passes.
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 500, 4000, WifiRate::k6Mbps, model, 1.0).success_prob,
      1.0);
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 700, 1000, 2400, WifiRate::k6Mbps, model, 1.0)
          .success_prob,
      1.0);
}

TEST(Interference, MultipleInterferersSumInLinearDomain) {
  InterferenceTracker t(dbm_to_mw(-200.0));  // negligible noise
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -83.0, 0, 1000));
  t.add(make_signal(3, -83.0, 0, 1000));
  // Two interferers at -83 dBm sum to -80 dBm -> SINR 0 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.05);
}

TEST(Interference, SinrScaleActsAsImplementationLoss) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  ThresholdErrorModel model(3.0);
  t.add(make_signal(1, -90.0, 0, 1000));  // SINR 4 dB
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 1000, 100, WifiRate::k6Mbps, model, 1.0).success_prob,
      1.0);
  // With 2 dB implementation loss the effective SINR drops below threshold.
  EXPECT_DOUBLE_EQ(
      t.evaluate(1, 0, 1000, 100, WifiRate::k6Mbps, model, db_to_linear(2.0))
          .success_prob,
      0.0);
}

TEST(Interference, PruneIsLazyBelowTheCompactionThreshold) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 100));
  t.add(make_signal(2, -80.0, 1000, 1100));
  t.prune(1050);  // longest 100: signal 1 ended before 950
  // Amortized contract: with only a handful of signals the expired one may
  // linger in signals()...
  EXPECT_EQ(t.signals().size(), 2u);
  // ...but no query from `now` on can see it, so it cannot affect results.
  EXPECT_NEAR(mw_to_dbm(t.active_power(1050).total_mw), -80.0, 0.01);
  EXPECT_NEAR(linear_to_db(t.min_sinr(2, 1000, 1100)), 14.0, 0.01);
}

TEST(Interference, PruneCompactsOnceGrownAndDropsOnlyExpiredSignals) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 100));    // ends before now - longest
  t.add(make_signal(2, -80.0, 900, 1000));  // ends exactly at it: kept
  for (std::uint64_t i = 0; i < 18; ++i) {
    t.add(make_signal(3 + i, -80.0, 1100, 1200));
  }
  t.prune(1100);  // longest 100: horizon 1000
  EXPECT_EQ(t.signals().size(), 19u);
  for (const auto& s : t.signals()) {
    EXPECT_NE(s.frame_id, 1u);
  }
}

TEST(Interference, PruneHorizonFollowsTheLongestSignalSeen) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 10'000));  // longest: 10 us
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto start = static_cast<sim::Time>(100 * i);
    t.add(make_signal(2 + i, -80.0, start, start + 100));
  }
  // Every short signal is long over at 12'000. But a signal as long as
  // signal 1 could still be on the air at 12'000 having started at 2'000,
  // and a window inside it reaches back that far: only the signals that
  // ended before 2'000 go.
  t.prune(12'000);
  for (const auto& s : t.signals()) EXPECT_GE(s.end, 2'000);
  EXPECT_EQ(t.signals().size(), 2u);  // signal 1 and [1900, 2000)
}

// Exact retention: a tracker pruned before every add answers every query
// the prune(now) contract allows — windows inside a signal still on the
// air, instants from `now` on — bit-for-bit like a tracker that never
// prunes.
TEST(Interference, PrunedTrackerMatchesUnprunedOracleExactly) {
  sim::Rng rng(2024);
  NistErrorModel model;
  std::size_t pruned_total = 0, oracle_total = 0;
  for (int trial = 0; trial < 12; ++trial) {
    InterferenceTracker pruned(dbm_to_mw(kNoiseDbm));
    InterferenceTracker oracle(dbm_to_mw(kNoiseDbm));
    std::vector<Signal> framed;  // decodable signals, in arrival order
    // Odd trials mix in rare signals 20x longer than the rest, so the
    // horizon jumps mid-stream.
    const std::int64_t max_len = trial % 2 == 0 ? 20 : 400;
    sim::Time now = 0;
    for (int step = 0; step < 300; ++step) {
      // A 10 ns grid: arrivals, ends and query instants share ticks.
      now += 10 * rng.uniform_int(0, 10);
      Signal s;
      s.start = now;
      const std::int64_t len_max = rng.bernoulli(0.05) ? max_len : 20;
      s.end = now + 10 * rng.uniform_int(1, len_max);
      s.power_mw = dbm_to_mw(rng.uniform(-95.0, -60.0));
      if (!rng.bernoulli(0.2)) {
        s.frame_id = static_cast<std::uint64_t>(1 + step);
        framed.push_back(s);
      }
      pruned.prune(now);
      pruned.add(s);
      oracle.add(s);

      for (int q = 0; q < 3; ++q) {
        const sim::Time t = now + 10 * rng.uniform_int(0, 40);
        const ActivePower a = pruned.active_power(t);
        const ActivePower b = oracle.active_power(t);
        EXPECT_EQ(a.total_mw, b.total_mw) << "t=" << t;
        EXPECT_EQ(a.max_mw, b.max_mw) << "t=" << t;
      }
      for (const Signal& x : framed) {
        if (x.end < now) continue;  // no longer on the air
        const sim::Time len = x.end - x.start;
        const sim::Time begin = x.start + rng.uniform_int(0, len - 1);
        const sim::Time end = begin + rng.uniform_int(1, x.end - begin);
        const std::uint64_t id = x.frame_id;
        const ChunkOutcome a =
            pruned.evaluate(id, begin, end, 800, WifiRate::k6Mbps, model, 1.0);
        const ChunkOutcome b =
            oracle.evaluate(id, begin, end, 800, WifiRate::k6Mbps, model, 1.0);
        EXPECT_EQ(a.success_prob, b.success_prob) << "frame " << id;
        EXPECT_EQ(a.min_sinr, b.min_sinr) << "frame " << id;
        EXPECT_EQ(pruned.min_sinr(id, begin, end),
                  oracle.min_sinr(id, begin, end))
            << "frame " << id;
      }
    }
    pruned_total += pruned.signals().size();
    oracle_total += oracle.signals().size();
  }
  // Not vacuous: pruning dropped most of the stream.
  EXPECT_LT(3 * pruned_total, oracle_total);
}

// The windowed queries against the whole-vector oracles, bit for bit.
// Powers are multiples of 2^-40 mW small enough that every partial sum is
// exact, so the swept evaluator's running sum and the oracle's per-chunk
// rescan agree exactly too. The stream has what the windows must get
// right: an expired prefix that lazy compaction has not dropped yet, starts
// tied on a 10 ns grid, raw-energy (id 0) signals, and rare long signals
// that widen the window mid-stream.
TEST(Interference, WindowedQueriesMatchTheWholeVectorOracleBitForBit) {
  sim::Rng rng(4242);
  NistErrorModel model;
  std::uint64_t expired_prefix_queries = 0, raw_energy = 0;
  for (int trial = 0; trial < 12; ++trial) {
    InterferenceTracker t(dbm_to_mw(kNoiseDbm));
    std::vector<Signal> framed;
    sim::Time now = 0;
    sim::Time longest = 0;
    for (int step = 0; step < 300; ++step) {
      now += 10 * rng.uniform_int(0, 6);
      const std::int64_t len_max = rng.bernoulli(0.03) ? 300 : 20;
      Signal s;
      s.start = now + 10 * rng.uniform_int(0, 3);  // some arrive later
      s.end = s.start + 10 * rng.uniform_int(1, len_max);
      s.power_mw = static_cast<double>(rng.uniform_int(1, 1 << 24)) *
                   0x1.0p-40;
      if (rng.bernoulli(0.15)) {
        ++raw_energy;  // frame id 0
      } else {
        s.frame_id = static_cast<std::uint64_t>(1 + step);
        framed.push_back(s);
      }
      t.prune(now);
      t.add(s);
      longest = std::max(longest, s.end - s.start);
      const bool expired_prefix = t.signals().front().end < now - longest;

      for (int q = 0; q < 4; ++q) {
        const sim::Time at = now + 10 * rng.uniform_int(0, 30);
        const ActivePower a = t.active_power(at);
        const ActivePower b = oracles::active_power(t, at);
        EXPECT_EQ(a.total_mw, b.total_mw) << "t=" << at;
        EXPECT_EQ(a.max_mw, b.max_mw) << "t=" << at;
      }
      for (const Signal& x : framed) {
        if (x.end < now) continue;  // no longer on the air
        ASSERT_NE(t.find(x.frame_id), nullptr);
        EXPECT_EQ(t.find(x.frame_id)->start, x.start);
        const sim::Time begin =
            x.start + 10 * rng.uniform_int(0, (x.end - x.start) / 10 - 1);
        const sim::Time end =
            begin + 10 * rng.uniform_int(1, (x.end - begin) / 10);
        const ChunkOutcome a =
            t.evaluate(x.frame_id, begin, end, 800, WifiRate::k6Mbps, model,
                       1.0);
        const ChunkOutcome b = oracles::evaluate(
            t, x.frame_id, begin, end, 800, WifiRate::k6Mbps, model, 1.0);
        EXPECT_EQ(a.success_prob, b.success_prob) << "frame " << x.frame_id;
        EXPECT_EQ(a.min_sinr, b.min_sinr) << "frame " << x.frame_id;
        EXPECT_EQ(t.min_sinr(x.frame_id, begin, end), b.min_sinr)
            << "frame " << x.frame_id;
        expired_prefix_queries += expired_prefix;
      }
    }
  }
  // Not vacuous: queries ran over an uncompacted expired prefix, and raw
  // energy was on the air.
  EXPECT_GT(expired_prefix_queries, 1000u);
  EXPECT_GT(raw_energy, 100u);
}

TEST(Interference, WindowedQueriesSkipAnExpiredPrefix) {
  InterferenceTracker t(dbm_to_mw(-200.0));  // negligible noise
  // Expired by t = 1000 (longest 100), but below the compaction size.
  for (std::uint64_t i = 0; i < 8; ++i) {
    t.add(make_signal(10 + i, -60.0, 0, 100));
  }
  t.add(make_signal(1, -80.0, 1000, 1100));
  t.add(Signal{0, dbm_to_mw(-80.0), 1000, 1050});  // raw energy, tied start
  t.add(make_signal(2, -80.0, 1000, 1100));        // tied start
  t.prune(1000);
  EXPECT_EQ(t.signals().size(), 11u);  // the prefix lingers
  EXPECT_EQ(t.signals()[8].frame_id, 0u);
  const ActivePower p = t.active_power(1000);
  EXPECT_EQ(p.total_mw, oracles::active_power(t, 1000).total_mw);
  EXPECT_NEAR(mw_to_dbm(p.total_mw), -80.0 + linear_to_db(3.0), 1e-9);
  // Frame 1 against frame 2 and the raw energy, then frame 2 alone.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 1000, 1100)), -linear_to_db(2.0),
              1e-9);
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 1050, 1100)), 0.0, 1e-9);
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(2)->end, 1100);
}

// The early-add invariant behind inert arrivals (phy/radio.h): adds made
// out of arrival order leave the tracker exactly as adds in (start, frame
// id) order, the order delivery events run in at one receiver, so every
// query answers bit-for-bit the same.
TEST(Interference, OutOfOrderAddsMatchArrivalOrderAddsExactly) {
  sim::Rng rng(77);
  NistErrorModel model;
  for (int trial = 0; trial < 20; ++trial) {
    // Distinct frame ids, deliberately not in start order; a 10 ns grid
    // so that starts tie.
    const int n = 40;
    std::vector<Signal> signals;
    for (int i = 0; i < n; ++i) {
      const sim::Time start = 10 * rng.uniform_int(0, 40);
      const sim::Time end = start + 10 * rng.uniform_int(1, 20);
      signals.push_back(make_signal(static_cast<std::uint64_t>(1 + (7 * i) % n),
                                    rng.uniform(-95.0, -60.0), start, end));
    }
    std::vector<Signal> arrival_order = signals;
    std::sort(arrival_order.begin(), arrival_order.end(),
              [](const Signal& a, const Signal& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.frame_id < b.frame_id;
              });
    std::vector<Signal> shuffled = signals;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    InterferenceTracker in_order(dbm_to_mw(kNoiseDbm));
    InterferenceTracker out_of_order(dbm_to_mw(kNoiseDbm));
    for (const Signal& x : arrival_order) in_order.add(x);
    for (const Signal& x : shuffled) out_of_order.add(x);

    ASSERT_EQ(in_order.signals().size(), out_of_order.signals().size());
    for (std::size_t i = 0; i < in_order.signals().size(); ++i) {
      const Signal& a = in_order.signals()[i];
      const Signal& b = out_of_order.signals()[i];
      EXPECT_EQ(a.frame_id, arrival_order[i].frame_id) << i;
      EXPECT_EQ(a.frame_id, b.frame_id) << i;
      EXPECT_EQ(a.start, b.start) << i;
      EXPECT_EQ(a.end, b.end) << i;
      EXPECT_EQ(a.power_mw, b.power_mw) << i;
    }
    for (sim::Time t = 0; t <= 620; t += 10) {
      const ActivePower a = in_order.active_power(t);
      const ActivePower b = out_of_order.active_power(t);
      EXPECT_EQ(a.total_mw, b.total_mw) << "t=" << t;
      EXPECT_EQ(a.max_mw, b.max_mw) << "t=" << t;
    }
    for (const Signal& x : signals) {
      const std::uint64_t id = x.frame_id;
      const sim::Time begin = x.start + rng.uniform_int(0, x.end - x.start - 1);
      const sim::Time end = begin + rng.uniform_int(1, x.end - begin);
      const ChunkOutcome a = in_order.evaluate(id, begin, end, 800,
                                               WifiRate::k6Mbps, model, 1.0);
      const ChunkOutcome b = out_of_order.evaluate(
          id, begin, end, 800, WifiRate::k6Mbps, model, 1.0);
      EXPECT_EQ(a.success_prob, b.success_prob) << "frame " << id;
      EXPECT_EQ(a.min_sinr, b.min_sinr) << "frame " << id;
      EXPECT_EQ(in_order.min_sinr(id, x.start, x.end),
                out_of_order.min_sinr(id, x.start, x.end))
          << "frame " << id;
    }
  }
}

TEST(Interference, EqualKeysKeepAddOrder) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  Signal noise;
  noise.power_mw = dbm_to_mw(-80.0);
  noise.start = 5;
  noise.end = 50;
  t.add(make_signal(3, -80.0, 5, 50));
  t.add(noise);  // raw energy: frame id 0, before frame 3
  noise.end = 60;
  t.add(noise);  // same key: after the first frameless signal
  t.add(make_signal(2, -80.0, 0, 50));
  ASSERT_EQ(t.signals().size(), 4u);
  EXPECT_EQ(t.signals()[0].frame_id, 2u);
  EXPECT_EQ(t.signals()[1].end, 50);
  EXPECT_EQ(t.signals()[1].frame_id, 0u);
  EXPECT_EQ(t.signals()[2].end, 60);
  EXPECT_EQ(t.signals()[3].frame_id, 3u);
}

TEST(Interference, FramelessSignalCountsAsInterference) {
  // Regression: evaluate() once crashed on raw-energy signals.
  InterferenceTracker t(dbm_to_mw(-200.0));  // negligible noise
  t.add(make_signal(1, -80.0, 0, 1000));
  EXPECT_EQ(t.find(0), nullptr);  // raw energy is never a decoding target
  Signal noise;
  noise.power_mw = dbm_to_mw(-80.0);
  noise.start = 0;
  noise.end = 1000;
  t.add(noise);
  // Equal-power frameless interferer: SINR ~ 0 dB.
  EXPECT_NEAR(linear_to_db(t.min_sinr(1, 0, 1000)), 0.0, 0.05);
  NistErrorModel model;
  const auto swept = t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0);
  const auto brute = oracles::evaluate(t, 1, 0, 1000, 8000, WifiRate::k6Mbps,
                                       model, 1.0);
  EXPECT_NEAR(swept.success_prob, brute.success_prob, 1e-12);
  EXPECT_NEAR(swept.min_sinr, brute.min_sinr, brute.min_sinr * 1e-12);
}

TEST(Interference, SweptEvaluatorMatchesBruteForceOnRandomSignalSets) {
  sim::Rng rng(123);
  NistErrorModel model;
  const sim::Time window_end = 1'000'000;
  for (int trial = 0; trial < 60; ++trial) {
    InterferenceTracker t(dbm_to_mw(kNoiseDbm));
    t.add(make_signal(1, -70.0, 0, window_end));
    const int n = 1 + trial % 40;
    for (int i = 0; i < n; ++i) {
      const sim::Time start = rng.uniform_int(-200'000, 950'000);
      const sim::Time len = rng.uniform_int(1, 500'000);
      t.add(make_signal(2 + static_cast<std::uint64_t>(i),
                        rng.uniform(-95.0, -72.0), start, start + len));
    }
    const auto swept =
        t.evaluate(1, 0, window_end, 11200, WifiRate::k6Mbps, model, 1.0);
    const auto brute = oracles::evaluate(t, 1, 0, window_end, 11200,
                                         WifiRate::k6Mbps, model, 1.0);
    // The running interference sum accumulates in a different order than
    // the per-interval rescan, so allow ULP-scale slack.
    EXPECT_NEAR(swept.success_prob, brute.success_prob,
                1e-9 * (1.0 + brute.success_prob))
        << "trial " << trial;
    EXPECT_NEAR(swept.min_sinr, brute.min_sinr, 1e-9 * brute.min_sinr)
        << "trial " << trial;
    // min_sinr() walks the same sweep without the error model: its minima
    // are evaluate()'s, bit for bit, over the whole window and inside it.
    EXPECT_EQ(t.min_sinr(1, 0, window_end), swept.min_sinr)
        << "trial " << trial;
    const sim::Time begin = rng.uniform_int(0, window_end - 1);
    const sim::Time end = rng.uniform_int(begin + 1, window_end);
    EXPECT_EQ(t.min_sinr(1, begin, end),
              t.evaluate(1, begin, end, 800, WifiRate::k6Mbps, model, 1.0)
                  .min_sinr)
        << "trial " << trial;
  }
}

TEST(Interference, TotalAndMaxPowerTrackActiveSignals) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  t.add(make_signal(1, -80.0, 0, 1000));
  t.add(make_signal(2, -77.0, 500, 1500));
  EXPECT_NEAR(mw_to_dbm(t.active_power(250).total_mw), -80.0, 0.01);
  EXPECT_NEAR(mw_to_dbm(t.active_power(250).max_mw), -80.0, 0.01);
  EXPECT_NEAR(mw_to_dbm(t.active_power(750).max_mw), -77.0, 0.01);
  const double both = dbm_to_mw(-80.0) + dbm_to_mw(-77.0);
  EXPECT_NEAR(t.active_power(750).total_mw, both, both * 1e-9);
  // A signal is inactive exactly at its end time.
  EXPECT_NEAR(mw_to_dbm(t.active_power(1000).total_mw), -77.0, 0.01);
  EXPECT_EQ(t.active_power(1500).total_mw, 0.0);
  EXPECT_EQ(t.active_power(1500).max_mw, 0.0);
}

TEST(Interference, EvaluateIsDeterministic) {
  InterferenceTracker t(dbm_to_mw(kNoiseDbm));
  NistErrorModel model;
  t.add(make_signal(1, -88.0, 0, 1000));
  t.add(make_signal(2, -90.0, 300, 800));
  const auto a =
      t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0);
  const auto b =
      t.evaluate(1, 0, 1000, 8000, WifiRate::k6Mbps, model, 1.0);
  EXPECT_DOUBLE_EQ(a.success_prob, b.success_prob);
  EXPECT_DOUBLE_EQ(a.min_sinr, b.min_sinr);
}

TEST(Interference, SuccessProbDropsWithOverlapFraction) {
  NistErrorModel model;
  double prev = 1.0;
  for (sim::Time overlap : {0, 200, 400, 600, 800, 1000}) {
    InterferenceTracker t(dbm_to_mw(kNoiseDbm));
    t.add(make_signal(1, -88.0, 0, 1000));
    if (overlap > 0) t.add(make_signal(2, -88.0, 0, overlap));
    const double s =
        t.evaluate(1, 0, 1000, 11200, WifiRate::k6Mbps, model, 1.0)
            .success_prob;
    EXPECT_LE(s, prev + 1e-12);
    prev = s;
  }
}

}  // namespace
}  // namespace cmap::phy

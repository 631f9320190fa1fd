// Micro-benchmarks of the hot paths: event queue churn, SINR chunking
// (swept vs brute-force reference), transmit fan-out (cached/culled rows vs
// the brute-force row scan), error-model evaluation, defer-table lookups, and
// full testbed construction (the measurement pass dominates experiment
// startup).
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/defer_table.h"
#include "oracles/interference_oracle.h"
#include "oracles/link_oracle.h"
#include "phy/error_model.h"
#include "phy/interference.h"
#include "phy/medium.h"
#include "phy/radio.h"
#include "phy/units.h"
#include "phy/wifi_rate.h"
#include "scenario/sweep.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"

namespace {

using namespace cmap;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < 1000; ++i) {
      s.at(i, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) ids.push_back(s.at(i, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2) ids[i].cancel();
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_NistErrorModel(benchmark::State& state) {
  phy::NistErrorModel m;
  double sinr = phy::db_to_linear(3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.chunk_success(sinr, 11200, phy::WifiRate::k6Mbps));
    sinr *= 1.0000001;
  }
}
BENCHMARK(BM_NistErrorModel);

// Tracker with one full-window target plus n interferers whose starts are
// spread across the window, so every one of them overlaps it (the dense-
// network shape the swept evaluator is built for).
phy::InterferenceTracker make_loaded_tracker(int n_interferers) {
  phy::InterferenceTracker t(phy::dbm_to_mw(-94.0));
  constexpr sim::Time kWindow = 1'892'000;
  phy::Signal target;
  target.frame_id = 1;
  target.power_mw = phy::dbm_to_mw(-70.0);
  target.start = 0;
  target.end = kWindow;
  t.add(target);
  for (int i = 0; i < n_interferers; ++i) {
    phy::Signal s;
    s.frame_id = 2 + static_cast<std::uint64_t>(i);
    s.power_mw = phy::dbm_to_mw(-85.0);
    s.start = kWindow * i / (n_interferers + 1);
    s.end = s.start + 900'000;
    t.add(s);
  }
  return t;
}

// The threshold model is O(1) per chunk, so these two benchmarks isolate
// the interval partitioning + interference summation that the sweep
// rewrite changed; per-chunk error-model cost is measured separately by
// BM_NistErrorModel.
void BM_InterferenceEvaluate(benchmark::State& state) {
  phy::InterferenceTracker t =
      make_loaded_tracker(static_cast<int>(state.range(0)));
  phy::ThresholdErrorModel model(3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.evaluate(1, 0, 1'892'000, 11200,
                                        phy::WifiRate::k6Mbps, model, 1.0));
  }
}
BENCHMARK(BM_InterferenceEvaluate)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The pre-optimization O(sub-intervals x S) rescan (the test-only oracle),
// for before/after comparison against BM_InterferenceEvaluate at the same
// load.
void BM_InterferenceEvaluateReference(benchmark::State& state) {
  phy::InterferenceTracker t =
      make_loaded_tracker(static_cast<int>(state.range(0)));
  phy::ThresholdErrorModel model(3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracles::evaluate(
        t, 1, 0, 1'892'000, 11200, phy::WifiRate::k6Mbps, model, 1.0));
  }
}
BENCHMARK(BM_InterferenceEvaluateReference)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256);

// N radios on a grid under log-distance-with-shadowing propagation; one
// center node transmits. Fast = Medium::transmit from the cached, culled
// row, with deliveries drained outside the timed region, so the
// measurement isolates Medium::transmit itself. Brute = the link oracle's
// row for the same source: a propagation query for every other radio,
// the work a fan-out without cached rows repeats on every frame.
struct FanoutWorld {
  sim::Simulator sim;
  phy::Medium medium;
  std::vector<std::unique_ptr<phy::Radio>> radios;

  explicit FanoutWorld(int n)
      : medium(std::make_shared<phy::LogDistanceShadowing>(),
               phy::MediumConfig{}, sim::Rng(7)) {
    const auto model = std::make_shared<phy::NistErrorModel>();
    const int side =
        static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
    constexpr double kSpacing = 30.0;  // meters; keeps reachability sparse
    radios.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const phy::Position pos{(i % side) * kSpacing, (i / side) * kSpacing};
      radios.push_back(std::make_unique<phy::Radio>(
          sim, medium, static_cast<phy::NodeId>(i), pos, phy::RadioConfig{},
          model, sim::Rng(1000 + static_cast<std::uint64_t>(i))));
    }
  }
};

void BM_TransmitFanoutFast(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FanoutWorld w(n);
  phy::Radio& src = *w.radios[static_cast<std::size_t>(n) / 2];
  const sim::Time airtime = phy::frame_airtime(phy::WifiRate::k6Mbps, 1400);
  int batch = 0;
  std::uint64_t fid_seq = 0;
  for (auto _ : state) {
    phy::Frame f;
    f.id = phy::make_frame_id(src.id(), ++fid_seq);
    f.tx_node = src.id();
    f.segments = {{phy::SegmentKind::kWhole, 1400}};
    f.duration = phy::frame_airtime(phy::WifiRate::k6Mbps, 1400);
    w.medium.transmit(src, std::make_shared<const phy::Frame>(std::move(f)));
    if (++batch == 256) {
      state.PauseTiming();
      // Drain deliveries untimed and move the clock two airtimes on. These
      // radios have no MAC, so none watches CCA and no signal-end event
      // would carry the clock past the batch; without the step no receiver
      // could ever prune a signal, and every drain would scan all of them.
      w.sim.run_until(w.sim.now() + 2 * airtime + 1);
      batch = 0;
      state.ResumeTiming();
    }
  }
  state.counters["reach"] =
      static_cast<double>(w.medium.row(src.id()).size());
}

void BM_TransmitFanoutBrute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FanoutWorld w(n);
  const phy::NodeId src = w.radios[static_cast<std::size_t>(n) / 2]->id();
  std::size_t reach = 0;
  for (auto _ : state) {
    const auto row = oracles::brute_row(w.medium, src);
    reach = row.size();
    benchmark::DoNotOptimize(row.data());
  }
  state.counters["reach"] = static_cast<double>(reach);
}
BENCHMARK(BM_TransmitFanoutFast)->Arg(50)->Arg(200)->Arg(400);
BENCHMARK(BM_TransmitFanoutBrute)->Arg(50)->Arg(200)->Arg(400);

void BM_DeferTableLookup(benchmark::State& state) {
  const int n_entries = static_cast<int>(state.range(0));
  core::DeferTable t(sim::seconds(1000));
  for (int i = 0; i < n_entries; ++i) {
    core::InterfererEntry e;
    e.source = 1;  // rule 1 applies at node 1
    e.interferer = 100 + i;
    t.apply_interferer_list(1, 2, {e}, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.should_defer(2, 100, 7, 1));
    benchmark::DoNotOptimize(t.should_defer(9, 100 + n_entries - 1, 7, 1));
  }
}
BENCHMARK(BM_DeferTableLookup)->Arg(4)->Arg(32)->Arg(256);

void BM_SeedMix(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scenario::mix_seed({1, 0xfeed, 3, 0, i++, 0}));
  }
}
BENCHMARK(BM_SeedMix);

void BM_SweepExpand(benchmark::State& state) {
  scenario::Sweep sweep;
  sweep.scenario = "fig12_exposed";
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCsmaOffAcks,
                   testbed::Scheme::kCmap, testbed::Scheme::kCmapWin1};
  sweep.replicates = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scenario::SweepRunner::expand(sweep, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_SweepExpand)->Arg(50)->Arg(500);

void BM_TestbedConstruction(benchmark::State& state) {
  for (auto _ : state) {
    testbed::TestbedConfig cfg;
    cfg.num_nodes = static_cast<int>(state.range(0));
    testbed::Testbed tb(cfg);
    benchmark::DoNotOptimize(tb.mean_degree());
  }
}
BENCHMARK(BM_TestbedConstruction)->Arg(20)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

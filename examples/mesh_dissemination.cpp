// The §5.7 two-hop content dissemination mesh: a source broadcasts a batch
// to three forwarders, which then push it onward concurrently — the phase
// where exposed terminals among forwarders pay off. Runs the registry's
// mesh_dissemination scenario (a custom two-phase executor) on one draw.
//
// Usage: mesh_dissemination [seconds=20] [seed=1]
#include <cstdio>
#include <cstdlib>

#include "scenario/sweep.h"

using namespace cmap;

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 20.0;
  const std::uint64_t seed = argc > 2 ? std::atoll(argv[2]) : 1;

  testbed::Testbed tb({.seed = seed});
  scenario::Sweep sweep;
  sweep.scenario = "mesh_dissemination";
  sweep.schemes = {testbed::Scheme::kCsma, testbed::Scheme::kCmap};
  sweep.topologies = 1;
  sweep.base_seed = seed;
  sweep.duration = sim::seconds(seconds);
  // The executor measures each phase over its own window; the warmup only
  // has to be valid.
  sweep.warmup = sim::seconds(seconds) * 2 / 5;

  const auto topos = scenario::SweepRunner::draw_topologies(sweep, tb);
  if (topos.empty()) {
    std::printf("no mesh scenario found (seed %llu)\n",
                static_cast<unsigned long long>(seed));
    return 1;
  }
  std::printf("mesh: %s\n\n", topos[0].label.c_str());

  const auto report = scenario::SweepRunner().run(sweep, tb);
  for (const auto& row : report.rows()) {
    std::printf("%-14s", row.scheme.c_str());
    for (std::size_t i = 0; i < row.flows.size(); ++i) {
      std::printf("  B%zu: %4.2f", i + 1, row.flows[i].mbps);
    }
    std::printf("  | aggregate %5.2f Mbit/s (min of the two hops per path)\n",
                row.aggregate_mbps);
  }
  std::printf("\nPaper (§5.7): CMAP's aggregate is ~52%% higher because the "
              "forwarders are frequently exposed terminals.\n");
  return 0;
}

// Ablation (§3.2 optimization): per-destination queues. While the head
// destination is deferred, a sender with traffic to another destination
// may serve it instead. The paper sketches this and "believes it will
// further improve throughput" — measured here via the dest_queue_ablation
// scenario (a conflicting in-range pair plus a clean alternative
// destination) with the per-dest knob as the variant axis.
#include <algorithm>

#include "bench_main.h"

using namespace cmap;
using namespace cmap::bench;

int main() {
  const Scale s = load_scale();
  print_header("Ablation: per-destination queues (§3.2 optimization)",
               "expected to further improve throughput (future work)",
               s);

  testbed::Testbed tb({.seed = s.seed});
  auto sweep = make_sweep(s, "dest_queue_ablation", {testbed::Scheme::kCmap});
  sweep.topologies = std::min(s.configs, 12);
  sweep.variants = {
      {"per-dest OFF",
       [](testbed::RunConfig& rc) { rc.cmap.per_dest_queues = false; }},
      {"per-dest ON",
       [](testbed::RunConfig& rc) { rc.cmap.per_dest_queues = true; }}};
  const auto report = make_runner(s).run(sweep, tb);
  maybe_write_json(report);

  std::printf("configurations with an alternative destination: %zu\n",
              report.rows().size() / sweep.variants.size());
  const auto off = report.aggregate("CMAP", "per-dest OFF");
  const auto on = report.aggregate("CMAP", "per-dest ON");
  print_cdf("per-dest OFF", off);
  print_cdf("per-dest ON", on);
  if (!off.empty()) {
    std::printf("\nmedian change: %+.1f%%\n",
                100.0 * (on.median() / off.median() - 1.0));
  }
  return 0;
}

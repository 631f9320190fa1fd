// Ablation (motivated by §5.2's win=1 result): sweep the send window size
// over exposed-terminal pairs. The windowed ACK protocol is load-bearing —
// exposed concurrency inevitably collides ACKs at the senders, and only a
// multi-VP window rides that out without spurious retransmissions.
#include <algorithm>

#include "bench_main.h"

using namespace cmap;
using namespace cmap::bench;

int main() {
  const Scale s = load_scale();
  print_header("Ablation: send window size on exposed terminals",
               "win=8 -> ~2x, win=1 -> ~1.5x over CS", s);

  testbed::Testbed tb({.seed = s.seed});

  auto base_sweep =
      make_sweep(s, "fig12_exposed", {testbed::Scheme::kCsma});
  base_sweep.topologies = std::min(s.configs, 12);
  const auto runner = make_runner(s);
  const auto base_report = runner.run(base_sweep, tb);
  std::printf("configurations: %zu\n", base_report.rows().size());
  const auto base = base_report.aggregate("CS,acks");
  print_cdf("CS,acks", base);

  auto sweep = make_sweep(s, "fig12_exposed", {testbed::Scheme::kCmap});
  sweep.topologies = std::min(s.configs, 12);
  for (int win : {1, 2, 4, 8, 16}) {
    sweep.variants.push_back(
        {"win=" + std::to_string(win),
         [win](testbed::RunConfig& rc) { rc.cmap.nwindow_vps = win; }});
  }
  const auto report = runner.run(sweep, tb);
  maybe_write_json(report);

  for (const auto& variant : sweep.variants) {
    const auto d = report.aggregate("CMAP", variant.label);
    const std::string label = "CMAP " + variant.label;
    print_cdf(label.c_str(), d);
    if (!base.empty() && !d.empty()) {
      std::printf("  -> median gain over CS: %.2fx\n",
                  d.median() / base.median());
    }
  }
  return 0;
}

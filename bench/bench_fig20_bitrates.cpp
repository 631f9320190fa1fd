// Figure 20 (§5.8): the exposed-terminal experiment repeated at the 6, 12
// and 18 Mbit/s 802.11a rates, with control frames pinned at the base
// rate. Paper: CMAP keeps its advantage at higher bit-rates, though the
// number of exploitable exposed-terminal opportunities shrinks as the
// required SINR grows.
#include "bench_main.h"

using namespace cmap;
using namespace cmap::bench;

int main() {
  const Scale s = load_scale();
  print_header("Figure 20: exposed terminals at 6/12/18 Mbit/s",
               "CMAP > CS at every rate; fewer opportunities at higher "
               "rates",
               s);

  testbed::Testbed tb({.seed = s.seed});
  auto sweep = make_sweep(s, "fig12_exposed",
                          {testbed::Scheme::kCsma, testbed::Scheme::kCmap});
  for (phy::WifiRate rate : {phy::WifiRate::k6Mbps, phy::WifiRate::k12Mbps,
                             phy::WifiRate::k18Mbps}) {
    // Each scheme's MAC reads its own config, so the rate goes on both.
    sweep.variants.push_back({phy::rate_name(rate),
                              [rate](testbed::RunConfig& rc) {
                                rc.cmap.data_rate = rate;
                                rc.dcf.data_rate = rate;
                              }});
  }
  const auto report = make_runner(s).run(sweep, tb);
  std::printf("exposed-terminal configurations: %zu\n",
              report.rows().size() /
                  (sweep.schemes.size() * sweep.variants.size()));
  maybe_write_json(report);

  for (const auto& variant : sweep.variants) {
    const auto cs = report.aggregate("CS,acks", variant.label);
    const auto cm = report.aggregate("CMAP", variant.label);
    std::printf("\n-- data rate %s --\n", variant.label.c_str());
    print_cdf("CS,acks", cs);
    print_cdf("CMAP", cm);
    if (!cs.empty()) {
      std::printf("median gain: %.2fx\n", cm.median() / cs.median());
    }
  }
  return 0;
}

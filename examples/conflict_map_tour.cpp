// A guided tour of the conflict map converging (§3.1): two conflicting
// flows start blind, receivers accumulate loss evidence against the
// interferer, interferer lists travel, defer tables fill, and the senders
// begin interleaving. Prints the distributed state every second.
//
// This example deliberately stays BELOW the declarative scenario API
// (scenario/sweep.h) — it hand-places four radios and pokes at MAC
// internals mid-run, which is exactly the kind of bespoke instrumentation
// the low-level simulator/medium/radio escape hatch exists for.
//
// Usage: conflict_map_tour [seconds=10]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/cmap_mac.h"
#include "net/traffic.h"
#include "phy/medium.h"
#include "phy/radio.h"

using namespace cmap;

namespace {

void dump_node(const char* label, const core::CmapMac& mac, sim::Time now) {
  std::printf("  %s: defer-table %zu entries, %llu defer events, "
              "%llu ilists rx",
              label, mac.defer_table().size(),
              static_cast<unsigned long long>(mac.counters().defer_events),
              static_cast<unsigned long long>(mac.counters().ilists_received));
  for (const auto& e : mac.defer_table().entries()) {
    if (e.expires <= now) continue;
    std::printf("  [");
    if (e.dst == phy::kBroadcastId) {
      std::printf("*");
    } else {
      std::printf("%u", e.dst);
    }
    std::printf(" : %u->", e.src);
    if (e.via == phy::kBroadcastId) {
      std::printf("*");
    } else {
      std::printf("%u", e.via);
    }
    std::printf("]");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = argc > 1 ? std::atof(argv[1]) : 10.0;

  // A (1) sends to B (2); X (3) sits next to B and sends to Y (4): the two
  // transmissions conflict in both directions.
  sim::Simulator simulator;
  phy::MediumConfig mcfg;
  mcfg.fading_sigma_db = 0.0;
  phy::Medium medium(std::make_shared<phy::FriisPropagation>(), mcfg,
                     sim::Rng(5));
  auto model = std::make_shared<phy::ThresholdErrorModel>(3.0);

  struct NodeDef {
    phy::NodeId id;
    phy::Position pos;
  };
  const NodeDef defs[] = {{1, {0, 0}}, {2, {20, 0}}, {3, {25, 0}}, {4, {50, 0}}};
  std::vector<std::unique_ptr<phy::Radio>> radios;
  std::vector<std::unique_ptr<core::CmapMac>> macs;
  for (const auto& d : defs) {
    radios.push_back(std::make_unique<phy::Radio>(
        simulator, medium, d.id, d.pos, phy::RadioConfig{}, model,
        sim::Rng(10 + d.id)));
    macs.push_back(std::make_unique<core::CmapMac>(
        simulator, *radios.back(), core::CmapConfig{}, sim::Rng(20 + d.id)));
  }
  net::PacketSink sink_b(*macs[1], simulator), sink_y(*macs[3], simulator);
  sink_b.set_window(0, sim::seconds(seconds));
  sink_y.set_window(0, sim::seconds(seconds));
  net::SaturatedSource f1(*macs[0], 1, 2);
  net::SaturatedSource f2(*macs[2], 3, 4);

  std::printf("topology: A(1) -> B(2) | X(3) -> Y(4); X sits beside B.\n"
              "Watch the conflict map converge:\n\n");
  for (int t = 1; t <= static_cast<int>(seconds); ++t) {
    simulator.at(sim::seconds(t), [&, t] {
      std::printf("t=%2ds  B<-A %6llu pkts   Y<-X %6llu pkts\n", t,
                  static_cast<unsigned long long>(sink_b.unique_packets()),
                  static_cast<unsigned long long>(sink_y.unique_packets()));
      dump_node("A", *macs[0], simulator.now());
      dump_node("X", *macs[2], simulator.now());
      const double lb = macs[1]->interferer_tracker().loss_rate(1, 3);
      const double ly = macs[3]->interferer_tracker().loss_rate(3, 1);
      std::printf("  B's loss(A | X active) = %.2f   "
                  "Y's loss(X | A active) = %.2f\n\n",
                  lb, ly);
    });
  }
  simulator.run_until(sim::seconds(seconds) + 1);

  std::printf("Final: %llu + %llu unique packets delivered.\n",
              static_cast<unsigned long long>(sink_b.unique_packets()),
              static_cast<unsigned long long>(sink_y.unique_packets()));
  std::printf("Rule 1 gave A the entry [2 : 3->*]; Rule 2 gave X [* : 1->2] "
              "(paper §3.1, Fig. 4).\n");
  return 0;
}

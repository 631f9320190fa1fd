// Committed report digests: what the simulator outputs, pinned. Every
// other golden compares two paths with each other (PDES against serial,
// traced against untraced, a fast path against its oracle), so a change
// that moves both sides at once passes all of them. This test recomputes
// one digest per (registry scenario, scheme) and compares the lot with
// tests/golden/report_digests.txt.
//
// On a mismatch it names every cell that moved and writes the full
// recomputed file to the build directory as report_digests.txt. A change
// that is meant to move results refreshes the committed file by copying
// that one over it, and says in CHANGES.md which cells moved and why.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "sim/parallel.h"
#include "testbed/testbed.h"

namespace cmap::scenario {
namespace {

constexpr const char* kCommitted =
    CMAP_SOURCE_DIR "/tests/golden/report_digests.txt";
constexpr const char* kRecomputed = CMAP_BINARY_DIR "/report_digests.txt";

constexpr testbed::Scheme kSchemes[] = {testbed::Scheme::kCsma,
                                        testbed::Scheme::kCmap,
                                        testbed::Scheme::kCmapIntegrated};

constexpr const char* kHeader =
    "# Report digests: scenario::hash_name (FNV-1a) of SweepReport::to_json()\n"
    "# for every registry scenario under CS,acks, CMAP and CMAP,integrated.\n"
    "# One topology (base seed 1), 400 ms runs (1,600 ms for scenarios with\n"
    "# dynamics) with a quarter of the run as warm-up, each scenario on its\n"
    "# prescribed building or else the default 50-node one.\n"
    "# Checked by tests/scenario/test_report_digests.cpp, which writes the\n"
    "# recomputed file to the build directory on a mismatch; a refresh copies\n"
    "# that file here. The four bench/e2e report digests are not in this "
    "file:\n"
    "# only the e2e driver computes them.\n"
    "# scenario scheme digest\n";

std::string cell_key(const std::string& scenario, testbed::Scheme scheme) {
  return scenario + " " + testbed::scheme_name(scheme);
}

std::string digest_of(const Scenario& s, testbed::Scheme scheme,
                      const testbed::Testbed& tb) {
  Sweep sweep;
  sweep.scenario = s.name;
  sweep.schemes = {scheme};
  sweep.topologies = 1;
  sweep.duration = s.defaults.dynamics.has_value() ? sim::milliseconds(1600)
                                                   : sim::milliseconds(400);
  sweep.warmup = *sweep.duration / 4;
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    hash_name(SweepRunner(1).run(sweep, tb).to_json())));
  return hex;
}

// "scenario scheme" -> digest, for every non-comment line of `text`.
std::map<std::string, std::string> parse(const std::string& text) {
  std::map<std::string, std::string> cells;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t cut = line.rfind(' ');
    cells[line.substr(0, cut)] =
        cut == std::string::npos ? "" : line.substr(cut + 1);
  }
  return cells;
}

TEST(ReportDigests, MatchTheCommittedFile) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  const std::vector<std::string> names = registry.names();
  // Testbeds first, one at a time: concurrent misses on one config would
  // build it twice.
  std::vector<std::shared_ptr<const testbed::Testbed>> testbeds;
  for (const std::string& name : names) {
    const Scenario& s = registry.at(name);
    testbeds.push_back(testbed::TestbedCache::global().get(
        s.testbed ? *s.testbed : testbed::TestbedConfig{}));
  }
  constexpr std::size_t kPerScenario = std::size(kSchemes);
  std::vector<std::string> digests(names.size() * kPerScenario);
  sim::parallel_for(0, digests.size(), [&](std::size_t i) {
    const std::size_t n = i / kPerScenario;
    digests[i] = digest_of(registry.at(names[n]), kSchemes[i % kPerScenario],
                           *testbeds[n]);
  });
  std::string recomputed = kHeader;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    recomputed +=
        cell_key(names[i / kPerScenario], kSchemes[i % kPerScenario]) + " " +
        digests[i] + "\n";
  }

  std::ifstream in(kCommitted);
  std::stringstream committed;
  committed << in.rdbuf();
  if (committed.str() == recomputed) return;

  std::ofstream(kRecomputed) << recomputed;
  ADD_FAILURE() << "report digests differ from " << kCommitted
                << "; the recomputed file is " << kRecomputed;
  const auto want = parse(committed.str());
  const auto got = parse(recomputed);
  for (const auto& [cell, digest] : got) {
    const auto it = want.find(cell);
    if (it == want.end()) {
      ADD_FAILURE() << cell << ": new cell " << digest;
    } else if (it->second != digest) {
      ADD_FAILURE() << cell << ": " << it->second << " -> " << digest;
    }
  }
  for (const auto& [cell, digest] : want) {
    if (!got.contains(cell)) ADD_FAILURE() << cell << ": cell gone";
  }
}

}  // namespace
}  // namespace cmap::scenario

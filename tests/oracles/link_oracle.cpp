#include "oracles/link_oracle.h"

#include <cstdio>
#include <span>

#include "phy/partition.h"
#include "phy/radio.h"
#include "sim/assert.h"

namespace cmap::oracles {
namespace {

// One row entry for a failure message; "none" past the end of a row.
std::string entry_text(const phy::Medium& medium,
                       const phy::Medium::RowLink* e) {
  if (e == nullptr) return "none";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "node %u at %.17g dBm, %lld ns",
                medium.radios()[e->dst]->id(), e->gain_dbm,
                static_cast<long long>(e->delay));
  return buf;
}

std::string describe(const char* what, phy::NodeId source,
                     const phy::Medium& medium, std::size_t pos,
                     const phy::Medium::RowLink* got,
                     const phy::Medium::RowLink* want) {
  return "row of node " + std::to_string(source) + ", entry " +
         std::to_string(pos) + ": " + what + " (row: " +
         entry_text(medium, got) + "; brute force: " +
         entry_text(medium, want) + ")";
}

// The cull floor as docs/link_state.md states it.
double cull_floor_dbm(const phy::MediumConfig& config) {
  return config.delivery_floor_dbm -
         config.cull_guard_sigmas * config.fading_sigma_db;
}

}  // namespace

std::vector<phy::Medium::RowLink> brute_row(const phy::Medium& medium,
                                            phy::NodeId source) {
  const phy::Radio* src = medium.radio(source);
  CMAP_ASSERT(src != nullptr, "brute_row of an unattached radio");
  const double floor = cull_floor_dbm(medium.config());
  const std::vector<phy::Radio*>& radios = medium.radios();
  std::vector<phy::Medium::RowLink> row;
  for (std::size_t i = 0; i < radios.size(); ++i) {
    const phy::Radio& dst = *radios[i];
    if (&dst == src) continue;
    const double gain = medium.propagation().rx_power_dbm(
        src->config().tx_power_dbm, src->id(), dst.id(), src->position(),
        dst.position());
    if (gain < floor) continue;
    row.push_back({static_cast<std::uint32_t>(i), gain,
                   phy::propagation_delay_ns(
                       phy::distance(src->position(), dst.position()))});
  }
  return row;
}

std::string audit_row(const phy::Medium& medium, phy::NodeId source) {
  const std::span<const phy::Medium::RowLink> row = medium.row(source);
  const std::vector<phy::Medium::RowLink> want = brute_row(medium, source);
  for (std::size_t k = 0; k < row.size() || k < want.size(); ++k) {
    const phy::Medium::RowLink* got = k < row.size() ? &row[k] : nullptr;
    const phy::Medium::RowLink* ref = k < want.size() ? &want[k] : nullptr;
    if (got == nullptr || ref == nullptr || got->dst != ref->dst) {
      return describe("receivers differ", source, medium, k, got, ref);
    }
    // Bit-equal, not near: the row caches the very value the model returns.
    if (got->gain_dbm != ref->gain_dbm || got->delay != ref->delay) {
      return describe("gain or delay differs", source, medium, k, got, ref);
    }
  }
  return {};
}

std::string audit_all_rows(const phy::Medium& medium) {
  for (const phy::Radio* radio : medium.radios()) {
    std::string diff = audit_row(medium, radio->id());
    if (!diff.empty()) return diff;
  }
  return {};
}

}  // namespace cmap::oracles

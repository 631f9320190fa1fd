#include "oracles/defer_oracle.h"

#include <algorithm>

namespace cmap::oracles {
namespace {

bool rate_matches(phy::WifiRate entry_rate, phy::WifiRate rate) {
  return entry_rate == core::kAnyRate || rate == core::kAnyRate ||
         entry_rate == rate;
}

}  // namespace

bool should_defer(const std::vector<core::DeferEntry>& entries,
                  phy::NodeId my_dst, phy::NodeId p, phy::NodeId q,
                  sim::Time now, phy::WifiRate my_rate,
                  phy::WifiRate their_rate) {
  for (const core::DeferEntry& e : entries) {
    if (e.expires <= now) continue;
    if (!rate_matches(e.my_rate, my_rate) ||
        !rate_matches(e.their_rate, their_rate)) {
      continue;
    }
    // Defer pattern 1: (* : p -> q).
    if (e.dst == phy::kBroadcastId && e.src == p && e.via == q) return true;
    // Defer pattern 2: (v : p -> *).
    if (e.dst == my_dst && e.src == p && e.via == phy::kBroadcastId) {
      return true;
    }
  }
  return false;
}

bool should_defer(const core::DeferTable& table, phy::NodeId my_dst,
                  phy::NodeId p, phy::NodeId q, sim::Time now,
                  phy::WifiRate my_rate, phy::WifiRate their_rate) {
  return should_defer(table.entries(), my_dst, p, q, now, my_rate,
                      their_rate);
}

std::vector<Blocker> blockers(const std::vector<core::OngoingTx>& ongoing,
                              const std::vector<core::DeferEntry>& entries,
                              phy::NodeId self, bool annotate_rates,
                              phy::NodeId dst, phy::WifiRate my_rate,
                              sim::Time now) {
  std::vector<Blocker> out;
  for (const core::OngoingTx& tx : ongoing) {
    if (tx.end_time <= now || tx.src == self) continue;
    const phy::WifiRate their_rate =
        annotate_rates ? tx.data_rate : core::kAnyRate;
    trace::DeferReason reason = trace::DeferReason::kNone;
    if (tx.src == dst || tx.dst == dst) {
      reason = trace::DeferReason::kDstBusy;
    } else if (should_defer(entries, dst, tx.src, tx.dst, now, my_rate,
                            their_rate)) {
      reason = trace::DeferReason::kConflictMap;
    }
    if (reason != trace::DeferReason::kNone) {
      out.push_back(Blocker{tx.src, tx.dst, tx.end_time, reason});
    }
  }
  return out;
}

core::DeferDecision decide(const std::vector<Blocker>& blockers) {
  core::DeferDecision d;
  if (blockers.empty()) return d;
  d.defer = true;
  d.reason = blockers.front().reason;
  d.blocker_src = blockers.front().src;
  d.blocker_dst = blockers.front().dst;
  d.until = std::min_element(blockers.begin(), blockers.end(),
                             [](const Blocker& a, const Blocker& b) {
                               return a.end_time < b.end_time;
                             })
                ->end_time;
  return d;
}

core::DeferDecision decide(const core::OngoingList& ongoing,
                           const core::DeferTable& table, phy::NodeId self,
                           bool annotate_rates, phy::NodeId dst,
                           phy::WifiRate my_rate, sim::Time now) {
  return decide(blockers(ongoing.active(now), table.entries(), self,
                         annotate_rates, dst, my_rate, now));
}

}  // namespace cmap::oracles

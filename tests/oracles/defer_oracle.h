// Test-only oracle for the CMAP send decision (§3.2). It restates the two
// defer patterns, the defer table's TTL and §3.5 rate-match rules, and the
// ongoing list's exclusive end-time boundary as plain scans over public
// snapshots: OngoingList::active and DeferTable::entries, or the same
// state rebuilt from a trace by trace::OngoingReplay / DeferTableReplay.
// It shares no code with DeferDecider or the table's bucket indexes.
#pragma once

#include <vector>

#include "core/cmap_mac.h"
#include "core/defer_table.h"
#include "core/ongoing_list.h"
#include "trace/trace.h"

namespace cmap::oracles {

/// Should a transmission to `my_dst` at `my_rate` defer to the ongoing
/// transmission p -> q at `their_rate`? An entry counts while now <
/// expires, and only if both of its rates match (kAnyRate on either side
/// matches any rate).
bool should_defer(const std::vector<core::DeferEntry>& entries,
                  phy::NodeId my_dst, phy::NodeId p, phy::NodeId q,
                  sim::Time now, phy::WifiRate my_rate = core::kAnyRate,
                  phy::WifiRate their_rate = core::kAnyRate);

/// The same question over a live table's entries().
bool should_defer(const core::DeferTable& table, phy::NodeId my_dst,
                  phy::NodeId p, phy::NodeId q, sim::Time now,
                  phy::WifiRate my_rate = core::kAnyRate,
                  phy::WifiRate their_rate = core::kAnyRate);

/// One ongoing transmission that forces a deferral, and the rule it trips.
struct Blocker {
  phy::NodeId src = 0;
  phy::NodeId dst = 0;
  sim::Time end_time = 0;
  trace::DeferReason reason = trace::DeferReason::kNone;
};

/// Every transmission in `ongoing` that is live at `now` (now < end_time)
/// and blocks node `self` from sending to `dst` at `my_rate`, in `ongoing`
/// order. kDstBusy when `dst` is its source or destination, else
/// kConflictMap when a defer entry matches it. `self`'s own transmissions
/// never block. With `annotate_rates` the transmission's own rate is
/// matched against the entries; without it, any rate matches.
std::vector<Blocker> blockers(const std::vector<core::OngoingTx>& ongoing,
                              const std::vector<core::DeferEntry>& entries,
                              phy::NodeId self, bool annotate_rates,
                              phy::NodeId dst, phy::WifiRate my_rate,
                              sim::Time now);

/// Defer iff anything blocks; the first blocker gives the reason and the
/// blocking transmission, and `until` is the earliest blocker's end time.
core::DeferDecision decide(const std::vector<Blocker>& blockers);

/// The whole decision over a live list and table, as DeferDecider::decide
/// is asked it.
core::DeferDecision decide(const core::OngoingList& ongoing,
                           const core::DeferTable& table, phy::NodeId self,
                           bool annotate_rates, phy::NodeId dst,
                           phy::WifiRate my_rate, sim::Time now);

}  // namespace cmap::oracles

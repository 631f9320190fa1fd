#include "core/defer_table.h"

#include <algorithm>
#include <tuple>

#include "sim/assert.h"

namespace cmap::core {
namespace {

void remove_from_bucket(std::vector<std::uint32_t>& bucket,
                        std::uint32_t idx) {
  const auto it = std::find(bucket.begin(), bucket.end(), idx);
  if (it == bucket.end()) return;
  *it = bucket.back();  // order within a bucket carries no meaning
  bucket.pop_back();
}

trace::DeferTableRecord table_record(phy::NodeId self, trace::DeferTableOp op,
                                     const DeferEntry& e) {
  return {self, op, e.dst, e.src, e.via,
          static_cast<std::uint32_t>(e.my_rate),
          static_cast<std::uint32_t>(e.their_rate), e.expires};
}

}  // namespace

bool DeferTable::rate_matches(phy::WifiRate entry_rate, phy::WifiRate rate) {
  return entry_rate == kAnyRate || rate == kAnyRate || entry_rate == rate;
}

DeferTable::Bucket& DeferTable::primary_bucket(const DeferEntry& e) {
  // Every entry has at least one wildcard (asserted in upsert); the
  // primary bucket is where exact duplicates of it are guaranteed to live.
  if (e.dst == phy::kBroadcastId) return by_src_via_[pair_key(e.src, e.via)];
  return by_dst_src_[pair_key(e.dst, e.src)];
}

void DeferTable::link(std::uint32_t idx) const {
  const DeferEntry& e = slots_[idx].e;
  if (e.dst == phy::kBroadcastId) {
    by_src_via_[pair_key(e.src, e.via)].push_back(idx);
  }
  if (e.via == phy::kBroadcastId) {
    by_dst_src_[pair_key(e.dst, e.src)].push_back(idx);
  }
}

void DeferTable::unlink(std::uint32_t idx, sim::Time now) const {
  Slot& s = slots_[idx];
  metrics_.inc(metrics::Counter::kMacDeferTtlExpiries);
  if (trace_.wants(trace::Category::kDeferTable)) {
    trace_.tracer->record(
        now, table_record(trace_.self, trace::DeferTableOp::kExpire, s.e));
  }
  if (s.e.dst == phy::kBroadcastId) {
    const auto it = by_src_via_.find(pair_key(s.e.src, s.e.via));
    if (it != by_src_via_.end()) remove_from_bucket(it->second, idx);
  }
  if (s.e.via == phy::kBroadcastId) {
    const auto it = by_dst_src_.find(pair_key(s.e.dst, s.e.src));
    if (it != by_dst_src_.end()) remove_from_bucket(it->second, idx);
  }
  s.live = false;
  free_.push_back(idx);
  --live_count_;
}

void DeferTable::upsert(DeferEntry e, sim::Time now) {
  // Update rule 1 sets via = *, rule 2 sets dst = *: an entry with neither
  // could never match a defer pattern.
  CMAP_ASSERT(e.dst == phy::kBroadcastId || e.via == phy::kBroadcastId,
              "defer-table entry without a wildcard");
  const bool traced = trace_.wants(trace::Category::kDeferTable);
  // An exact duplicate (same key fields including rates) refreshes the
  // existing entry's TTL in place — whether or not it has lapsed — so
  // re-reported conflicts never grow the table.
  for (std::uint32_t idx : primary_bucket(e)) {
    DeferEntry& existing = slots_[idx].e;
    if (existing.dst == e.dst && existing.src == e.src &&
        existing.via == e.via && existing.my_rate == e.my_rate &&
        existing.their_rate == e.their_rate) {
      existing.expires = e.expires;
      metrics_.inc(metrics::Counter::kMacDeferRefreshes);
      if (traced) {
        trace_.tracer->record(
            now, table_record(trace_.self, trace::DeferTableOp::kRefresh, e));
      }
      return;
    }
  }
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[idx].e = e;
  slots_[idx].live = true;
  ++live_count_;
  link(idx);
  if (metrics_.on()) {
    metrics_.inc(metrics::Counter::kMacDeferInserts);
    metrics_.raise(metrics::Counter::kMacDeferOccupancyHw, live_count_);
  }
  if (traced) {
    trace_.tracer->record(
        now, table_record(trace_.self, trace::DeferTableOp::kInsert, e));
  }
}

void DeferTable::apply_interferer_list(
    phy::NodeId self, phy::NodeId reporter,
    const std::vector<InterfererEntry>& entries, sim::Time now) {
  for (const auto& il : entries) {
    DeferEntry e;
    e.expires = now + ttl_;
    if (annotate_rates_) {
      e.my_rate = il.source_rate;
      e.their_rate = il.interferer_rate;
    }
    if (il.source == self) {
      // Rule 1: my transmissions to the reporter lose to il.interferer.
      e.dst = reporter;
      e.src = il.interferer;
      e.via = phy::kBroadcastId;
      upsert(e, now);
    }
    if (il.interferer == self) {
      // Rule 2: my transmissions to anyone trample il.source -> reporter.
      e.dst = phy::kBroadcastId;
      e.src = il.source;
      e.via = reporter;
      // The roles flip: when deferring, *my* rate is the interferer rate.
      if (annotate_rates_) {
        e.my_rate = il.interferer_rate;
        e.their_rate = il.source_rate;
      }
      upsert(e, now);
    }
  }
}

bool DeferTable::probe(Index& index, std::uint64_t key, sim::Time now,
                       phy::WifiRate my_rate,
                       phy::WifiRate their_rate) const {
  metrics_.inc(metrics::Counter::kMacDeferProbes);
  const auto it = index.find(key);
  if (it == index.end()) return false;
  Bucket& bucket = it->second;
  std::size_t i = 0;
  while (i < bucket.size()) {
    const std::uint32_t idx = bucket[i];
    const DeferEntry& e = slots_[idx].e;
    if (e.expires <= now) {
      // Lazy TTL reclamation: unlink swap-pops idx out of this bucket (and
      // its sibling, for dual-wildcard entries), so i now names the entry
      // that was at the back — do not advance.
      unlink(idx, now);
      continue;
    }
    if (rate_matches(e.my_rate, my_rate) &&
        rate_matches(e.their_rate, their_rate)) {
      return true;
    }
    ++i;
  }
  return false;
}

bool DeferTable::should_defer(phy::NodeId my_dst, phy::NodeId p,
                              phy::NodeId q, sim::Time now,
                              phy::WifiRate my_rate,
                              phy::WifiRate their_rate) const {
  // Defer pattern 1: (* : p -> q).
  if (probe(by_src_via_, pair_key(p, q), now, my_rate, their_rate)) {
    return true;
  }
  // Defer pattern 2: (v : p -> *).
  return probe(by_dst_src_, pair_key(my_dst, p), now, my_rate, their_rate);
}

void DeferTable::expire(sim::Time now) {
  for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
    if (slots_[idx].live && slots_[idx].e.expires <= now) unlink(idx, now);
  }
}

std::vector<DeferEntry> DeferTable::entries() const {
  std::vector<DeferEntry> out;
  out.reserve(live_count_);
  for (const Slot& s : slots_) {
    if (s.live) out.push_back(s.e);
  }
  return out;
}

std::vector<DeferEntry> DeferTable::snapshot(sim::Time now) const {
  std::vector<DeferEntry> out;
  out.reserve(live_count_);
  for (const Slot& s : slots_) {
    // entries() reports linked slots even past their TTL (lazy reclamation
    // keeps them around until a probe touches them); the snapshot applies
    // the TTL rule itself so it matches what any reader would reconstruct.
    if (s.live && s.e.expires > now) out.push_back(s.e);
  }
  std::sort(out.begin(), out.end(), [](const DeferEntry& a,
                                       const DeferEntry& b) {
    return std::tie(a.dst, a.src, a.via, a.my_rate, a.their_rate) <
           std::tie(b.dst, b.src, b.via, b.my_rate, b.their_rate);
  });
  return out;
}

}  // namespace cmap::core

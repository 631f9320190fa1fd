#include "sim/pdes.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <utility>

#include "sim/assert.h"

namespace cmap::sim {
namespace {

/// Monotonic nanoseconds for stall attribution. Values land only in the
/// metrics snapshot's execution section — simulation logic can never
/// observe them, so determinism is untouched.
std::int64_t profile_clock_ns() {
  // cmap-lint: allow(banned-wallclock) -- PDES stall-attribution timing; feeds only the non-deterministic execution section
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

constexpr std::size_t log2_bin(std::uint64_t span) {
  return span <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(span)) - 1;
}

}  // namespace

PdesEngine::PdesEngine(Simulator& global, int partitions, int threads)
    : global_(global),
      // Threads beyond the partition count could never win a window.
      crew_(std::min(threads, partitions)) {
  CMAP_ASSERT(partitions >= 1, "need at least one partition");
  parts_.reserve(static_cast<std::size_t>(partitions));
  mailboxes_.reserve(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    parts_.push_back(std::make_unique<Simulator>());
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  stats_.busy_ns.assign(parts_.size(), 0);
}

void PdesEngine::set_min_delays(const std::vector<Time>& matrix) {
  const std::size_t n = parts_.size();
  CMAP_ASSERT(matrix.size() == n * n, "delay matrix must be partitions^2");
  // Edges first, validated; the diagonal starts at kTimeForever (not 0)
  // so Floyd–Warshall relaxes it to the minimum cycle through the
  // partition — the earliest its own output can reflect back at it.
  closure_.assign(n * n, kTimeForever);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const Time d = matrix[a * n + b];
      if (d < 1) {
        char field[64];
        std::snprintf(field, sizeof field, "min_delays[%zu][%zu]", a, b);
        require_valid(false, "PdesEngine", field, static_cast<double>(d));
      }
      closure_[a * n + b] = d;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t a = 0; a < n; ++a) {
      const Time ak = closure_[a * n + k];
      if (ak == kTimeForever) continue;
      for (std::size_t b = 0; b < n; ++b) {
        const Time kb = closure_[k * n + b];
        if (kb == kTimeForever) continue;
        closure_[a * n + b] = std::min(closure_[a * n + b], ak + kb);
      }
    }
  }
}

void PdesEngine::schedule_delivery(int src_partition, int dst_partition,
                                   Time at, std::uint64_t frame_id,
                                   std::uint64_t receiver,
                                   EventFn fn) {
  const auto dp = static_cast<std::size_t>(dst_partition);
  if (src_partition == dst_partition) {
    // This thread is the one executing the partition's window, so the
    // target queue is exclusively ours right now.
    parts_[dp]->queue().schedule_ranked(at, delivery_rank(frame_id, receiver),
                                        std::move(fn));
    return;
  }
  Mailbox& mb = *mailboxes_[dp];
  const std::lock_guard<std::mutex> lock(mb.mutex);
  mb.msgs.push_back(Message{at, frame_id, receiver, std::move(fn)});
  ++mb.posted;
  mb.pending.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t PdesEngine::messages() const {
  std::uint64_t total = 0;
  for (const auto& mb : mailboxes_) {
    const std::lock_guard<std::mutex> lock(mb->mutex);
    total += mb->posted;
  }
  return total;
}

std::uint64_t PdesEngine::mailbox_posted(int partition) const {
  const Mailbox& mb = *mailboxes_[static_cast<std::size_t>(partition)];
  const std::lock_guard<std::mutex> lock(mb.mutex);
  return mb.posted;
}

void PdesEngine::drain_mailboxes() {
  for (std::size_t p = 0; p < parts_.size(); ++p) {
    Mailbox& mb = *mailboxes_[p];
    // Relaxed is enough: every post happened either on this thread or in
    // a window that the crew's barrier has since closed.
    if (mb.pending.load(std::memory_order_relaxed) == 0) continue;
    {
      const std::lock_guard<std::mutex> lock(mb.mutex);
      // Swap, not move: both buffers keep their capacity, so posting into
      // an emptied mailbox does not reallocate.
      mb.draining.swap(mb.msgs);
      mb.pending.store(0, std::memory_order_relaxed);
    }
    // Insertion order is whatever the mutex handed out, but the ranked
    // comparator totally orders deliveries by (time, frame, receiver) —
    // a key pair no two deliveries share — so execution order is
    // insertion-independent.
    for (Message& m : mb.draining) {
      parts_[p]->queue().schedule_ranked(
          m.at, delivery_rank(m.frame_id, m.receiver), std::move(m.fn));
    }
    mb.draining.clear();
  }
}

void PdesEngine::run_partition(std::size_t p, Time window_end) {
  const std::int64_t t0 = profiling_ ? profile_clock_ns() : 0;
  EventQueue& q = parts_[p]->queue();
  while (q.next_time() < window_end) q.run_one();
  if (profiling_) {
    // Distinct partitions touch distinct slots, so concurrent workers
    // never write the same entry.
    const std::int64_t dt = profile_clock_ns() - t0;
    stats_.busy_ns[p] += static_cast<std::uint64_t>(dt > 0 ? dt : 0);
  }
}

void PdesEngine::run_until(Time until) {
  CMAP_ASSERT(until < kTimeForever, "PDES run_until needs a finite horizon");
  CMAP_ASSERT(!closure_.empty(),
              "PDES run_until before set_min_delays installed a matrix");
  // Deliveries posted between runs (say, by a node that starts
  // transmitting during setup) must be queued before the first window.
  drain_mailboxes();
  // Workers poll for the next round instead of parking until this returns.
  const WorkerCrew::LiveRun live(crew_);
  const std::size_t n = parts_.size();
  std::vector<Time> next(n);
  std::vector<Time> window(n);
  for (;;) {
    const Time next_global = global_.queue().next_time();
    Time s = next_global;
    for (std::size_t p = 0; p < n; ++p) {
      next[p] = parts_[p]->queue().next_time();
      s = std::min(s, next[p]);
    }
    if (s > until) break;
    ++rounds_;

    if (next_global <= s) {
      // Global events mutate shared medium state (moves, channel epochs):
      // run everything due at exactly s alone, then let the owner refresh
      // lookaheads for any motion. Rank-0 ordering in the serial queue
      // sorts the same events first at the same instant.
      ++stats_.global_barriers;
      while (global_.queue().next_time() == s) global_.queue().run_one();
      if (topology_refresh_) topology_refresh_();
      continue;
    }

    // Conservative windows: partition g may execute strictly before the
    // earliest instant any causal chain rooted at a pending event — in any
    // partition, itself included — could still influence it. The
    // shortest-path closure covers chains relayed through partitions that
    // are idle right now and a partition's own output reflecting back at
    // it (see set_min_delays).
    std::size_t busy = 0;
    std::size_t last_busy = 0;
    for (std::size_t g = 0; g < n; ++g) {
      Time w = std::min(next_global, until + 1);
      for (std::size_t h = 0; h < n; ++h) {
        const Time sp = closure_[h * n + g];
        if (next[h] == kTimeForever || sp == kTimeForever) continue;
        w = std::min(w, next[h] + sp);
      }
      window[g] = w;
      if (next[g] < w) {
        ++busy;
        last_busy = g;
        stats_.window_log2[log2_bin(static_cast<std::uint64_t>(w - next[g]))]++;
      }
    }
    // Every closure entry is >= 1 ns (set_min_delays' precondition), so the
    // partition holding the minimum event always has a non-empty window.
    CMAP_ASSERT(busy > 0, "conservative round made no progress");
    const std::int64_t t0 = profiling_ ? profile_clock_ns() : 0;
    if (busy == 1) {
      // Inline on the driving thread: cheaper than any handoff.
      run_partition(last_busy, window[last_busy]);
    } else {
      // One item per partition, so partition p runs on crew thread
      // p % threads (bar a late owner); an empty window returns at once.
      crew_.run(n, [this, &next, &window](std::size_t p) {
        if (next[p] < window[p]) run_partition(p, window[p]);
      });
    }
    if (profiling_) {
      const std::int64_t dt = profile_clock_ns() - t0;
      stats_.parallel_ns += static_cast<std::uint64_t>(dt > 0 ? dt : 0);
    }
    drain_mailboxes();
  }

  global_.queue().advance_to(until);
  for (const auto& part : parts_) part->queue().advance_to(until);
}

}  // namespace cmap::sim

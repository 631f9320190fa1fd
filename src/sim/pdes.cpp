#include "sim/pdes.h"

#include <algorithm>
#include <bit>
#include <chrono>
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
    parts_.back()->queue().set_seq_source(&shared_seq_);
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  // Until the owner installs real minimum delays, assume zero lookahead
  // everywhere: one scheduling group, which is conservative (serial) and
  // therefore always sound.
  dmin_.assign(parts_.size() * parts_.size(), 0);
  stats_.busy_ns.assign(parts_.size(), 0);
  rebuild_groups();
}

void PdesEngine::set_min_delays(std::vector<Time> matrix) {
  CMAP_ASSERT(matrix.size() == parts_.size() * parts_.size(),
              "delay matrix must be partitions^2");
  for (const Time d : matrix) CMAP_ASSERT(d >= 0, "negative lookahead");
  dmin_ = std::move(matrix);
  rebuild_groups();
}

void PdesEngine::rebuild_groups() {
  // Scheduling groups = connected components over "zero lookahead in
  // either direction". Derived from the current matrix each time, so a
  // pair that drifts apart under mobility splits back into two groups.
  const int n = partitions();
  std::vector<int> root(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) root[static_cast<std::size_t>(p)] = p;
  const std::function<int(int)> find = [&](int p) {
    while (root[static_cast<std::size_t>(p)] != p) {
      root[static_cast<std::size_t>(p)] =
          root[static_cast<std::size_t>(root[static_cast<std::size_t>(p)])];
      p = root[static_cast<std::size_t>(p)];
    }
    return p;
  };
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (min_delay(a, b) > 0 && min_delay(b, a) > 0) continue;
      root[static_cast<std::size_t>(find(a))] = find(b);
    }
  }
  groups_.clear();
  group_id_.assign(static_cast<std::size_t>(n), -1);
  for (int p = 0; p < n; ++p) {
    const int r = find(p);
    if (group_id_[static_cast<std::size_t>(r)] < 0) {
      group_id_[static_cast<std::size_t>(r)] =
          static_cast<int>(groups_.size());
      groups_.emplace_back();
    }
    const int g = group_id_[static_cast<std::size_t>(r)];
    group_id_[static_cast<std::size_t>(p)] = g;
    groups_[static_cast<std::size_t>(g)].members.push_back(p);
  }
  rebuild_closure();
}

void PdesEngine::rebuild_closure() {
  // Group-level edges first: the fastest signal between any member pair.
  const auto n = groups_.size();
  closure_.assign(n * n, kTimeForever);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;  // self-influence only via a real cycle
      Time& e = closure_[a * n + b];
      for (const int p : groups_[a].members) {
        for (const int q : groups_[b].members) {
          e = std::min(e, min_delay(p, q));
        }
      }
    }
  }
  // Floyd–Warshall over those edges. The diagonal starts at kTimeForever
  // (not 0) so it relaxes to the minimum cycle through the group — the
  // earliest a group's own output can reflect back at it.
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
  const auto sp = static_cast<std::size_t>(src_partition);
  const auto dp = static_cast<std::size_t>(dst_partition);
  if (group_id_[sp] == group_id_[dp]) {
    // Same scheduling group: this thread is the one executing the group's
    // window, so the target queue is exclusively ours right now.
    parts_[dp]->queue().schedule_ranked(at, delivery_rank(frame_id, receiver),
                                        std::move(fn));
    return;
  }
  Mailbox& mb = *mailboxes_[dp];
  const std::lock_guard<std::mutex> lock(mb.mutex);
  mb.msgs.push_back(Message{at, frame_id, receiver, std::move(fn)});
  ++mb.posted;
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
    std::vector<Message> batch;
    {
      const std::lock_guard<std::mutex> lock(mb.mutex);
      batch.swap(mb.msgs);
    }
    // Insertion order is whatever the mutex handed out, but the ranked
    // comparator totally orders deliveries by (time, frame, receiver) —
    // a key pair no two deliveries share — so execution order is
    // insertion-independent.
    for (Message& m : batch) {
      parts_[p]->queue().schedule_ranked(
          m.at, delivery_rank(m.frame_id, m.receiver), std::move(m.fn));
    }
  }
}

void PdesEngine::run_group(const Group& g, Time window_end) {
  if (!profiling_) {
    run_group_events(g, window_end);
    return;
  }
  const std::int64_t t0 = profile_clock_ns();
  run_group_events(g, window_end);
  const std::int64_t dt = profile_clock_ns() - t0;
  // One worker executes the whole group; a merged group's interleave is
  // charged to its lead member. Distinct groups touch distinct slots, so
  // concurrent workers never write the same entry.
  stats_.busy_ns[static_cast<std::size_t>(g.members.front())] +=
      static_cast<std::uint64_t>(dt > 0 ? dt : 0);
}

void PdesEngine::run_group_events(const Group& g, Time window_end) {
  if (g.members.size() == 1) {
    const int p = g.members.front();
    const std::shared_ptr<void> token = scope_ ? scope_(p) : nullptr;
    EventQueue& q = parts_[static_cast<std::size_t>(p)]->queue();
    while (q.next_time() < window_end) q.run_one();
    return;
  }
  // Merged group (zero lookahead, i.e. propagation delay disabled):
  // interleave the member queues by full event key. The shared seq counter
  // makes (time, rank, seq) a total order across member queues matching
  // the serial queue's pop order exactly.
  int scoped = -1;
  std::shared_ptr<void> token;
  for (;;) {
    int best = -1;
    EventKey best_key{};
    for (const int p : g.members) {
      const EventKey k = parts_[static_cast<std::size_t>(p)]->queue().next_key();
      if (k.at >= window_end) continue;
      if (best < 0 || k < best_key) {
        best = p;
        best_key = k;
      }
    }
    if (best < 0) return;
    if (scope_ && scoped != best) {
      token = scope_(best);
      scoped = best;
    }
    parts_[static_cast<std::size_t>(best)]->queue().run_one();
  }
}

void PdesEngine::run_until(Time until) {
  CMAP_ASSERT(until < kTimeForever, "PDES run_until needs a finite horizon");
  std::vector<Time> window(groups_.size());
  std::vector<std::size_t> batch;  // indices into groups_ with work
  for (;;) {
    const Time next_global = global_.queue().next_time();
    Time s = next_global;
    for (Group& g : groups_) {
      g.next = kTimeForever;
      for (const int p : g.members) {
        g.next = std::min(g.next,
                          parts_[static_cast<std::size_t>(p)]->queue()
                              .next_time());
      }
      s = std::min(s, g.next);
    }
    if (s > until) break;
    ++rounds_;

    if (next_global <= s) {
      // Global events mutate shared medium state (moves, channel epochs):
      // run everything due at exactly s alone, then let the owner refresh
      // lookaheads for any motion. Rank-0 ordering in the serial queue
      // sorts the same events first at the same instant.
      ++stats_.global_barriers;
      const std::shared_ptr<void> token = scope_ ? scope_(-1) : nullptr;
      while (global_.queue().next_time() == s) global_.queue().run_one();
      if (topology_refresh_) topology_refresh_();
      // Group membership may have changed; resize the scratch.
      window.resize(groups_.size());
      continue;
    }

    // Conservative windows: group g may execute strictly before the
    // earliest instant any causal chain rooted at a pending event — in any
    // group, itself included — could still influence it. The shortest-path
    // closure covers chains relayed through groups that are idle right now
    // and a group's own output reflecting back at it (see rebuild_closure).
    batch.clear();
    window.resize(groups_.size());
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      Time w = std::min(next_global, until + 1);
      for (std::size_t hi = 0; hi < groups_.size(); ++hi) {
        const Time sp = closure_[hi * groups_.size() + gi];
        if (groups_[hi].next == kTimeForever || sp == kTimeForever) continue;
        w = std::min(w, groups_[hi].next + sp);
      }
      window[gi] = w;
      if (groups_[gi].next < w) {
        batch.push_back(gi);
        stats_.window_log2[log2_bin(
            static_cast<std::uint64_t>(w - groups_[gi].next))]++;
        if (groups_[gi].members.size() > 1) ++stats_.merged_windows;
      }
    }
    // Merged groups guarantee every cross-group lookahead is >= 1 ns, so
    // the group holding the minimum event always has a non-empty window.
    CMAP_ASSERT(!batch.empty(), "conservative round made no progress");
    const std::int64_t t0 = profiling_ ? profile_clock_ns() : 0;
    crew_.run(batch.size(), [this, &batch, &window](std::size_t i) {
      run_group(groups_[batch[i]], window[batch[i]]);
    });
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

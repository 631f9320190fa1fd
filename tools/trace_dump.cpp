// trace_dump: decode a .cmtrace binary event stream (docs/trace_format.md)
// to human-readable text or JSON lines, or replay the conflict-map
// evolution it records (--replay-defer-table / --replay-ongoing) to
// reconstruct any node's DeferTable or OngoingList at a chosen tick.
// Decode errors exit 1 with a message; truncated traces never dump
// silently-partial output without saying so.
//
// Usage:
//   trace_dump FILE [--json] [--category NAME]... [--limit N]
//   trace_dump FILE --replay-defer-table --tick T_NS [--node ID]
//   trace_dump FILE --replay-ongoing --tick T_NS [--node ID]
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "trace/reader.h"
#include "trace/trace.h"

namespace {

using namespace cmap;

const char* defer_reason_name(trace::DeferReason r) {
  switch (r) {
    case trace::DeferReason::kNone: return "none";
    case trace::DeferReason::kDstBusy: return "dst_busy";
    case trace::DeferReason::kConflictMap: return "conflict_map";
  }
  return "?";
}

const char* table_op_name(trace::DeferTableOp op) {
  switch (op) {
    case trace::DeferTableOp::kInsert: return "insert";
    case trace::DeferTableOp::kRefresh: return "refresh";
    case trace::DeferTableOp::kExpire: return "expire";
  }
  return "?";
}

const char* ongoing_op_name(trace::OngoingOp op) {
  switch (op) {
    case trace::OngoingOp::kNote: return "note";
    case trace::OngoingOp::kUpdate: return "update";
    case trace::OngoingOp::kExpire: return "expire";
  }
  return "?";
}

const char* collision_reason_name(trace::CollisionReason r) {
  switch (r) {
    case trace::CollisionReason::kPreambleSinr: return "preamble_sinr";
    case trace::CollisionReason::kCaptured: return "captured";
    case trace::CollisionReason::kLocalTx: return "local_tx";
  }
  return "?";
}

// "*" for the broadcast wildcard id in defer-table patterns.
std::string id_or_star(std::uint32_t id) {
  if (id == 0xffffffffu) return "*";
  return std::to_string(id);
}

void print_text(const trace::Record& r) {
  std::printf("%14" PRId64 " %-13s", r.tick,
              trace::category_name(r.category));
  switch (r.category) {
    case trace::Category::kPhyTx: {
      const auto& b = std::get<trace::PhyTxRecord>(r.body);
      std::printf(" node=%u frame=%" PRIu64 " rate=%u bytes=%u dur=%" PRId64,
                  b.node, b.frame_id, b.rate, b.bytes, b.duration);
      break;
    }
    case trace::Category::kPhyRx: {
      const auto& b = std::get<trace::PhyRxRecord>(r.body);
      std::printf(" node=%u frame=%" PRIu64 " from=%u ok=%d min_sinr=%.2fdB",
                  b.node, b.frame_id, b.tx_node, b.ok ? 1 : 0,
                  b.min_sinr_cdb / 100.0);
      break;
    }
    case trace::Category::kPhyCollision: {
      const auto& b = std::get<trace::PhyCollisionRecord>(r.body);
      std::printf(" node=%u frame=%" PRIu64 " reason=%s", b.node, b.frame_id,
                  collision_reason_name(b.reason));
      break;
    }
    case trace::Category::kMacDefer: {
      const auto& b = std::get<trace::MacDeferRecord>(r.body);
      std::printf(" node=%u dst=%u decision=%s", b.node, b.dst,
                  b.deferred ? "defer" : "send");
      if (b.deferred) {
        std::printf(" reason=%s blocker=%u->%u until=%" PRId64,
                    defer_reason_name(b.reason), b.blocker_src, b.blocker_dst,
                    b.until);
      }
      break;
    }
    case trace::Category::kDeferTable: {
      const auto& b = std::get<trace::DeferTableRecord>(r.body);
      std::printf(" node=%u op=%s pattern=(%s: %s->%s) rates=%u/%u"
                  " expires=%" PRId64,
                  b.node, table_op_name(b.op), id_or_star(b.dst).c_str(),
                  id_or_star(b.src).c_str(), id_or_star(b.via).c_str(),
                  b.my_rate, b.their_rate, b.expires);
      break;
    }
    case trace::Category::kOngoing: {
      const auto& b = std::get<trace::OngoingRecord>(r.body);
      std::printf(" node=%u op=%s tx=%u->%u end=%" PRId64, b.node,
                  ongoing_op_name(b.op), b.src, b.dst, b.end_time);
      break;
    }
    case trace::Category::kMove: {
      const auto& b = std::get<trace::MoveRecord>(r.body);
      std::printf(" node=%u x=%.3fm y=%.3fm", b.node, b.x_mm / 1000.0,
                  b.y_mm / 1000.0);
      break;
    }
    case trace::Category::kChannelEpoch: {
      const auto& b = std::get<trace::ChannelEpochRecord>(r.body);
      std::printf(" epoch=%" PRIu64, b.epoch);
      break;
    }
    case trace::Category::kCount:
      break;
  }
  std::printf("\n");
}

void print_json(const trace::Record& r) {
  std::printf("{\"tick\":%" PRId64 ",\"category\":\"%s\"", r.tick,
              trace::category_name(r.category));
  switch (r.category) {
    case trace::Category::kPhyTx: {
      const auto& b = std::get<trace::PhyTxRecord>(r.body);
      std::printf(",\"node\":%u,\"frame\":%" PRIu64
                  ",\"rate\":%u,\"bytes\":%u,\"duration\":%" PRId64,
                  b.node, b.frame_id, b.rate, b.bytes, b.duration);
      break;
    }
    case trace::Category::kPhyRx: {
      const auto& b = std::get<trace::PhyRxRecord>(r.body);
      std::printf(",\"node\":%u,\"frame\":%" PRIu64
                  ",\"from\":%u,\"ok\":%s,\"min_sinr_cdb\":%d",
                  b.node, b.frame_id, b.tx_node, b.ok ? "true" : "false",
                  b.min_sinr_cdb);
      break;
    }
    case trace::Category::kPhyCollision: {
      const auto& b = std::get<trace::PhyCollisionRecord>(r.body);
      std::printf(",\"node\":%u,\"frame\":%" PRIu64 ",\"reason\":\"%s\"",
                  b.node, b.frame_id, collision_reason_name(b.reason));
      break;
    }
    case trace::Category::kMacDefer: {
      const auto& b = std::get<trace::MacDeferRecord>(r.body);
      std::printf(",\"node\":%u,\"dst\":%u,\"deferred\":%s,\"reason\":\"%s\""
                  ",\"blocker_src\":%u,\"blocker_dst\":%u,\"until\":%" PRId64,
                  b.node, b.dst, b.deferred ? "true" : "false",
                  defer_reason_name(b.reason), b.blocker_src, b.blocker_dst,
                  b.until);
      break;
    }
    case trace::Category::kDeferTable: {
      const auto& b = std::get<trace::DeferTableRecord>(r.body);
      std::printf(",\"node\":%u,\"op\":\"%s\",\"dst\":%u,\"src\":%u"
                  ",\"via\":%u,\"my_rate\":%u,\"their_rate\":%u"
                  ",\"expires\":%" PRId64,
                  b.node, table_op_name(b.op), b.dst, b.src, b.via, b.my_rate,
                  b.their_rate, b.expires);
      break;
    }
    case trace::Category::kOngoing: {
      const auto& b = std::get<trace::OngoingRecord>(r.body);
      std::printf(",\"node\":%u,\"op\":\"%s\",\"src\":%u,\"dst\":%u"
                  ",\"end\":%" PRId64,
                  b.node, ongoing_op_name(b.op), b.src, b.dst, b.end_time);
      break;
    }
    case trace::Category::kMove: {
      const auto& b = std::get<trace::MoveRecord>(r.body);
      std::printf(",\"node\":%u,\"x_mm\":%" PRId64 ",\"y_mm\":%" PRId64,
                  b.node, b.x_mm, b.y_mm);
      break;
    }
    case trace::Category::kChannelEpoch: {
      const auto& b = std::get<trace::ChannelEpochRecord>(r.body);
      std::printf(",\"epoch\":%" PRIu64, b.epoch);
      break;
    }
    case trace::Category::kCount:
      break;
  }
  std::printf("}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE [--json] [--category NAME]... [--limit N]\n"
               "       %s FILE --replay-defer-table --tick T_NS [--node ID]\n"
               "       %s FILE --replay-ongoing --tick T_NS [--node ID]\n"
               "categories: phy_tx phy_rx phy_collision mac_defer"
               " defer_table ongoing move channel_epoch\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  bool replay = false;
  bool replay_ongoing = false;
  bool have_tick = false;
  bool have_node = false;
  long long tick = 0;
  unsigned long node = 0;
  long long limit = -1;
  std::uint32_t category_filter = 0;  // 0 = all

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--replay-defer-table") {
      replay = true;
    } else if (arg == "--replay-ongoing") {
      replay_ongoing = true;
    } else if (arg == "--tick" && i + 1 < argc) {
      tick = std::atoll(argv[++i]);
      have_tick = true;
    } else if (arg == "--node" && i + 1 < argc) {
      node = std::strtoul(argv[++i], nullptr, 10);
      have_node = true;
    } else if (arg == "--limit" && i + 1 < argc) {
      limit = std::atoll(argv[++i]);
    } else if (arg == "--category" && i + 1 < argc) {
      const std::string name = argv[++i];
      bool found = false;
      for (std::size_t c = 0; c < cmap::trace::kCategoryCount; ++c) {
        const auto cat = static_cast<cmap::trace::Category>(c);
        if (name == cmap::trace::category_name(cat)) {
          category_filter |= cmap::trace::bit(cat);
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown category: %s\n", name.c_str());
        return usage(argv[0]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);
  if (replay && replay_ongoing) {
    std::fprintf(stderr,
                 "--replay-defer-table and --replay-ongoing are exclusive\n");
    return usage(argv[0]);
  }
  if ((replay || replay_ongoing) && !have_tick) {
    std::fprintf(stderr, "%s requires --tick\n",
                 replay ? "--replay-defer-table" : "--replay-ongoing");
    return usage(argv[0]);
  }

  cmap::trace::TraceReader reader(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error().c_str());
    return 1;
  }

  if (replay) {
    // Replay semantics: apply every mutation with record tick <= T; the
    // reported set is each entry whose latest insert/refresh leaves
    // expires > T (DeferTable's own TTL-liveness rule).
    if ((reader.categories() &
         cmap::trace::bit(cmap::trace::Category::kDeferTable)) == 0) {
      std::fprintf(stderr,
                   "%s: trace was recorded without the defer_table "
                   "category; nothing to replay\n",
                   path.c_str());
      return 1;
    }
    if (reader.sample_every().size() >
            static_cast<std::size_t>(cmap::trace::Category::kDeferTable) &&
        reader.sample_every()[static_cast<std::size_t>(
            cmap::trace::Category::kDeferTable)] != 1) {
      std::fprintf(stderr,
                   "%s: defer_table records were sampled (every-%u); a "
                   "decimated mutation stream cannot be replayed\n",
                   path.c_str(),
                   reader.sample_every()[static_cast<std::size_t>(
                       cmap::trace::Category::kDeferTable)]);
      return 1;
    }
    cmap::trace::DeferTableReplay replayer;
    cmap::trace::Record r;
    while (reader.next(&r)) {
      if (r.tick > tick) break;
      replayer.apply(r);
    }
    if (!reader.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error().c_str());
      return 1;
    }
    std::vector<std::uint32_t> ids =
        have_node ? std::vector<std::uint32_t>{
                        static_cast<std::uint32_t>(node)}
                  : replayer.nodes();
    for (std::uint32_t id : ids) {
      const auto entries = replayer.live(id, tick);
      std::printf("node %u: %zu live entries at tick %lld\n", id,
                  entries.size(), tick);
      for (const auto& e : entries) {
        std::printf("  (%s: %s->%s) rates=%u/%u expires=%" PRId64 "\n",
                    id_or_star(e.dst).c_str(), id_or_star(e.src).c_str(),
                    id_or_star(e.via).c_str(), e.my_rate, e.their_rate,
                    e.expires);
      }
    }
    return 0;
  }

  if (replay_ongoing) {
    // Replay semantics mirror --replay-defer-table: apply every note/update
    // with record tick <= T; the reported set is each transmission whose
    // announced end time is still ahead of T (OngoingList's exclusive
    // end-time boundary).
    if ((reader.categories() &
         cmap::trace::bit(cmap::trace::Category::kOngoing)) == 0) {
      std::fprintf(stderr,
                   "%s: trace was recorded without the ongoing category; "
                   "nothing to replay\n",
                   path.c_str());
      return 1;
    }
    if (reader.sample_every().size() >
            static_cast<std::size_t>(cmap::trace::Category::kOngoing) &&
        reader.sample_every()[static_cast<std::size_t>(
            cmap::trace::Category::kOngoing)] != 1) {
      std::fprintf(stderr,
                   "%s: ongoing records were sampled (every-%u); a decimated "
                   "mutation stream cannot be replayed\n",
                   path.c_str(),
                   reader.sample_every()[static_cast<std::size_t>(
                       cmap::trace::Category::kOngoing)]);
      return 1;
    }
    cmap::trace::OngoingReplay replayer;
    cmap::trace::Record r;
    while (reader.next(&r)) {
      if (r.tick > tick) break;
      replayer.apply(r);
    }
    if (!reader.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error().c_str());
      return 1;
    }
    std::vector<std::uint32_t> ids =
        have_node ? std::vector<std::uint32_t>{
                        static_cast<std::uint32_t>(node)}
                  : replayer.nodes();
    for (std::uint32_t id : ids) {
      const auto entries = replayer.live(id, tick);
      std::printf("node %u: %zu ongoing transmissions at tick %lld\n", id,
                  entries.size(), tick);
      for (const auto& e : entries) {
        std::printf("  tx=%u->%u end=%" PRId64 "\n", e.src, e.dst, e.end_time);
      }
    }
    return 0;
  }

  cmap::trace::Record r;
  long long printed = 0;
  while (reader.next(&r)) {
    if (category_filter != 0 &&
        (category_filter & cmap::trace::bit(r.category)) == 0) {
      continue;
    }
    if (limit >= 0 && printed >= limit) break;
    if (json) {
      print_json(r);
    } else {
      print_text(r);
    }
    ++printed;
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error().c_str());
    return 1;
  }
  return 0;
}

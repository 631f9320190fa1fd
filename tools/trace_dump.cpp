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

// "*" for the broadcast wildcard id in defer-table patterns.
std::string id_or_star(std::uint32_t id) {
  if (id == 0xffffffffu) return "*";
  return std::to_string(id);
}

void print_entry(const trace::DeferTableReplay::Entry& e) {
  std::printf("  (%s: %s->%s) rates=%u/%u expires=%" PRId64 "\n",
              id_or_star(e.dst).c_str(), id_or_star(e.src).c_str(),
              id_or_star(e.via).c_str(), e.my_rate, e.their_rate, e.expires);
}

void print_entry(const trace::OngoingReplay::Entry& e) {
  std::printf("  tx=%u->%u end=%" PRId64 "\n", e.src, e.dst, e.end_time);
}

// Replay semantics: apply every mutation of category `c` with record tick
// <= T, then print each node's entries still live at T (an entry's latest
// expires / announced end time is ahead of T: DeferTable's TTL rule and
// OngoingList's exclusive end-time boundary). `what` names the entries in
// the per-node header line.
template <class Replay>
int run_replay(trace::TraceReader& reader, const std::string& path,
           trace::Category c, const char* what, long long tick,
           const std::vector<std::uint32_t>& only_node) {
  const char* name = trace::category_name(c);
  if ((reader.categories() & trace::bit(c)) == 0) {
    std::fprintf(stderr,
                 "%s: trace was recorded without the %s category; nothing "
                 "to replay\n",
                 path.c_str(), name);
    return 1;
  }
  const std::size_t i = static_cast<std::size_t>(c);
  if (reader.sample_every().size() > i && reader.sample_every()[i] != 1) {
    std::fprintf(stderr,
                 "%s: %s records were sampled (every-%u); a decimated "
                 "mutation stream cannot be replayed\n",
                 path.c_str(), name, reader.sample_every()[i]);
    return 1;
  }
  Replay replayer;
  trace::Record r;
  while (reader.next(&r)) {
    if (r.tick > tick) break;
    replayer.apply(r);
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error().c_str());
    return 1;
  }
  for (std::uint32_t id : only_node.empty() ? replayer.nodes() : only_node) {
    const auto entries = replayer.live(id, tick);
    std::printf("node %u: %zu %s at tick %lld\n", id, entries.size(), what,
                tick);
    for (const auto& e : entries) print_entry(e);
  }
  return 0;
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

  const std::vector<std::uint32_t> only_node =
      have_node ? std::vector<std::uint32_t>{static_cast<std::uint32_t>(node)}
                : std::vector<std::uint32_t>{};
  if (replay) {
    return run_replay<cmap::trace::DeferTableReplay>(
        reader, path, cmap::trace::Category::kDeferTable, "live entries", tick,
        only_node);
  }
  if (replay_ongoing) {
    return run_replay<cmap::trace::OngoingReplay>(
        reader, path, cmap::trace::Category::kOngoing,
        "ongoing transmissions", tick, only_node);
  }

  cmap::trace::Record r;
  long long printed = 0;
  while (reader.next(&r)) {
    if (category_filter != 0 &&
        (category_filter & cmap::trace::bit(r.category)) == 0) {
      continue;
    }
    if (limit >= 0 && printed >= limit) break;
    const std::string line =
        json ? cmap::trace::to_json(r) : cmap::trace::describe(r);
    std::printf("%s\n", line.c_str());
    ++printed;
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error().c_str());
    return 1;
  }
  return 0;
}

// trace_diff: align two .cmtrace streams record-by-record and report the
// first divergence — the 0-based record index, each stream's record (tick,
// category, decoded fields), or which stream ended first. The comparison
// is on every decoded field, exactly, so any field difference registers,
// including ones the human formatting rounds. Exit codes follow cmp/diff convention:
// 0 identical, 1 diverged, 2 usage or read error.
//
// Usage:
//   trace_diff FILE_A FILE_B [--context N]
//
// --context N re-reads stream A and prints the N records leading up to the
// divergence, which is usually enough to see what the two runs disagreed
// about without dumping both files.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/reader.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s FILE_A FILE_B [--context N]\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path_a;
  std::string path_b;
  long long context = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--context" && i + 1 < argc) {
      context = std::atoll(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path_a.empty()) {
      path_a = arg;
    } else if (path_b.empty()) {
      path_b = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path_b.empty()) return usage(argv[0]);

  cmap::trace::TraceReader a(path_a);
  if (!a.ok()) {
    std::fprintf(stderr, "%s: %s\n", path_a.c_str(), a.error().c_str());
    return 2;
  }
  cmap::trace::TraceReader b(path_b);
  if (!b.ok()) {
    std::fprintf(stderr, "%s: %s\n", path_b.c_str(), b.error().c_str());
    return 2;
  }

  const cmap::trace::Divergence d = cmap::trace::first_divergence(a, b);

  // A stream that stopped on a decode error is a read failure, not a clean
  // comparison result — report it as such even if the records agreed so
  // far.
  if (!a.ok()) {
    std::fprintf(stderr, "%s: %s\n", path_a.c_str(), a.error().c_str());
    return 2;
  }
  if (!b.ok()) {
    std::fprintf(stderr, "%s: %s\n", path_b.c_str(), b.error().c_str());
    return 2;
  }

  if (!d.diverged) {
    std::printf("identical: %" PRIu64 " records\n", d.index);
    return 0;
  }

  if (context > 0) {
    // Re-read stream A from the top for the lead-up; both streams agree on
    // every record before the divergence, so A's prefix speaks for both.
    cmap::trace::TraceReader lead(path_a);
    cmap::trace::Record r;
    const std::uint64_t from =
        d.index > static_cast<std::uint64_t>(context)
            ? d.index - static_cast<std::uint64_t>(context)
            : 0;
    for (std::uint64_t i = 0; i < d.index && lead.next(&r); ++i) {
      if (i < from) continue;
      std::printf("  =%-6" PRIu64 " %s\n", i,
                  cmap::trace::describe(r).c_str());
    }
  }

  std::printf("divergence at record %" PRIu64 "\n", d.index);
  if (d.a_ended) {
    std::printf("  a: <end of stream>\n");
  } else {
    std::printf("  a: %s\n", cmap::trace::describe(d.a).c_str());
  }
  if (d.b_ended) {
    std::printf("  b: <end of stream>\n");
  } else {
    std::printf("  b: %s\n", cmap::trace::describe(d.b).c_str());
  }
  return 1;
}

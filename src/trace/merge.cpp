#include "trace/merge.h"

#include <memory>

#include "trace/reader.h"
#include "trace/trace.h"

namespace cmap::trace {
namespace {

// One input stream being merged: its reader plus the decoded-but-not-yet-
// emitted head record.
struct Head {
  std::unique_ptr<TraceReader> reader;
  Record record;
  bool live = false;
};

}  // namespace

bool merge_streams(const std::vector<std::string>& inputs,
                   const std::string& out_path, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (inputs.empty()) return fail("merge_streams: no input files");

  std::vector<Head> heads(inputs.size());
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    heads[i].reader = std::make_unique<TraceReader>(inputs[i]);
    TraceReader& r = *heads[i].reader;
    if (!r.ok()) return fail(inputs[i] + ": " + r.error());
    mask |= r.categories();
    heads[i].live = r.next(&heads[i].record);
    if (!heads[i].live && !r.ok()) return fail(inputs[i] + ": " + r.error());
  }

  TraceConfig config;
  config.path = out_path;
  config.categories = mask;
  // Records were sampled at write time; carry the first input's declared
  // rates through so downstream consumers (DeferTableReplay's "unsampled"
  // requirement) still see them, but never re-decimate here.
  const auto& declared = heads.front().reader->sample_every();
  for (std::size_t c = 0; c < kCategoryCount && c < declared.size(); ++c) {
    config.sample_every[c] = declared[c];
  }
  Tracer out(config);

  for (;;) {
    std::size_t best = heads.size();
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (!heads[i].live) continue;
      if (best == heads.size() ||
          heads[i].record.tick < heads[best].record.tick) {
        best = i;  // strict <: earlier input index wins tick ties
      }
    }
    if (best == heads.size()) break;
    Head& h = heads[best];
    std::visit(
        [&](const auto& body) { out.record_unsampled(h.record.tick, body); },
        h.record.body);
    h.live = h.reader->next(&h.record);
    if (!h.live && !h.reader->ok()) {
      return fail(inputs[best] + ": " + h.reader->error());
    }
  }
  return true;
}

}  // namespace cmap::trace

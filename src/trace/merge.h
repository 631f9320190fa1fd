// Merge per-partition .cmtrace streams into one time-ordered stream.
//
// A PDES run writes one trace file per partition (plus the global
// sequencer's stream): each is tick-monotone on its own, but a reader
// wanting the whole run needs them interleaved. merge_streams k-way merges
// on (tick, input index) — input index as the tie-breaker makes the output
// a pure function of the input files, so merging the same run twice is
// byte-identical. Each record is decoded and re-encoded through its field
// list; every field is an integer, so a stream the Tracer wrote comes out
// with its payload bytes unchanged.
#pragma once

#include <string>
#include <vector>

namespace cmap::trace {

/// Merge `inputs` (at least one) into `out_path`. The output header takes
/// the union of the input category masks and the first input's sampling
/// config (records were already sampled at write time). Returns false and
/// explains in *error (if non-null) when an input is missing or malformed.
/// Header errors are caught before the output is created; a record-level
/// decode error mid-merge aborts and may leave a partial output file.
bool merge_streams(const std::vector<std::string>& inputs,
                   const std::string& out_path, std::string* error);

}  // namespace cmap::trace

// Decoder for .cmtrace streams (the format Tracer writes; see
// docs/trace_format.md) plus the conflict-map replayer the trace_dump tool
// and the replay-consistency tests are built on. Malformed or truncated
// input never decodes silently: next() stops and error() explains.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "trace/trace.h"

namespace cmap::trace {

/// One decoded record. The body alternatives are listed in Category
/// order, so body.index() is the category.
struct Record {
  using Body =
      std::variant<PhyTxRecord, PhyRxRecord, PhyCollisionRecord,
                   MacDeferRecord, DeferTableRecord, OngoingRecord,
                   MoveRecord, ChannelEpochRecord>;

  Category category = Category::kPhyTx;
  sim::Time tick = 0;  // absolute (deltas resolved by the reader)
  Body body;

  bool operator==(const Record&) const = default;
};

class TraceReader {
 public:
  /// Read and decode the header from a file; ok() is false (with error())
  /// if the file is missing, too short, or not a trace.
  explicit TraceReader(const std::string& path);
  /// Decode from an in-memory byte string (tests).
  explicit TraceReader(std::vector<std::uint8_t> bytes);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Header fields.
  std::uint32_t categories() const { return categories_; }
  const std::vector<std::uint32_t>& sample_every() const {
    return sample_every_;
  }

  /// Decode the next record. Returns false at clean end-of-stream AND on a
  /// decode error — check error() to tell them apart (empty = clean EOF).
  bool next(Record* out);

 private:
  void fail(const std::string& what);
  void parse_header();

  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  sim::Time last_tick_ = 0;
  std::uint32_t categories_ = 0;
  std::vector<std::uint32_t> sample_every_;
  std::string error_;
};

/// Convenience: decode every record of `path`. On malformed input, returns
/// the records decoded so far and sets *error (never silently partial).
std::vector<Record> read_all(const std::string& path, std::string* error);

/// Reconstructs each node's DeferTable contents from a stream of
/// kDeferTable records. Feed records in file order via apply(); live(node,
/// at) then answers "which entries were live at time `at`" — an entry is
/// live iff the most recent insert/refresh gave it expires > at, exactly
/// DeferTable's TTL rule. Expire records need no replay action: the table
/// only ever reclaims entries whose TTL already lapsed, so reclamation can
/// never change the TTL-live set this class reports.
///
/// Requires the trace to carry kDeferTable unsampled (sample_every == 1);
/// a decimated mutation stream cannot be replayed.
class DeferTableReplay {
 public:
  struct Entry {
    std::uint32_t dst = 0;
    std::uint32_t src = 0;
    std::uint32_t via = 0;
    std::uint32_t my_rate = 0;
    std::uint32_t their_rate = 0;
    sim::Time expires = 0;
  };

  /// Apply one decoded record; records of other categories are ignored.
  void apply(const Record& r);

  /// Entries of `node`'s table live at time `at` (expires > at), sorted by
  /// (dst, src, via, my_rate, their_rate) — a canonical order so two
  /// reconstructions compare with ==.
  std::vector<Entry> live(std::uint32_t node, sim::Time at) const;

  /// Every node id that appeared in a defer-table record, sorted.
  std::vector<std::uint32_t> nodes() const;

 private:
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                         std::uint32_t, std::uint32_t>;
  std::map<std::uint32_t, std::map<Key, sim::Time>> tables_;
};

/// Reconstructs each node's OngoingList from a stream of kOngoing records,
/// the same way DeferTableReplay reconstructs defer tables. note/update
/// set the (src, dst) pair's announced end time; expire records need no
/// replay action — the list only reclaims entries whose end time already
/// passed, and liveness here is decided by end_time alone (an entry is
/// live strictly before its end time, OngoingList's exclusive boundary).
///
/// Requires the trace to carry kOngoing unsampled (sample_every == 1).
class OngoingReplay {
 public:
  struct Entry {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    sim::Time end_time = 0;
  };

  /// Apply one decoded record; records of other categories are ignored.
  void apply(const Record& r);

  /// Entries of `node`'s list live at time `at` (end_time > at), sorted by
  /// (src, dst) — a canonical order so two reconstructions compare with ==.
  std::vector<Entry> live(std::uint32_t node, sim::Time at) const;

  /// Every node id that appeared in an ongoing record, sorted.
  std::vector<std::uint32_t> nodes() const;

 private:
  using Key = std::pair<std::uint32_t, std::uint32_t>;  // (src, dst)
  std::map<std::uint32_t, std::map<Key, sim::Time>> lists_;
};

/// One-line human description of a decoded record — "<tick> <category>
/// field=value ...", the tick right-aligned in 14 columns and the category
/// left-aligned in 13 — shared by trace_dump, trace_diff, and their tests.
std::string describe(const Record& r);

/// The record as one JSON object: tick, category, then every payload field
/// under its field-list name, in wire order (trace_dump --json).
std::string to_json(const Record& r);

/// Where two streams first disagree (tools/trace_diff). Streams are
/// aligned record-by-record and compared as decoded records (tick,
/// category, every payload field); the comparison is exact, so any field
/// difference — including ones describe() rounds — registers.
struct Divergence {
  bool diverged = false;    // false: every record of the two streams equal
  /// 0-based record index of the first difference; when !diverged, the
  /// number of records compared.
  std::uint64_t index = 0;
  bool a_ended = false;     // stream A stopped (EOF or decode error) first
  bool b_ended = false;
  Record a;                 // the differing record; valid when !a_ended
  Record b;                 // valid when !b_ended
};

/// Align two readers and report the first divergence. Headers are not
/// compared (streams recorded with different category masks can still be
/// record-identical); decode errors surface through each reader's error().
Divergence first_divergence(TraceReader& a, TraceReader& b);

}  // namespace cmap::trace

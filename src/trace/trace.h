// Always-on observability: compact binary event streams with bounded
// overhead (ROADMAP "Always-on telemetry"). A Tracer serializes typed
// records — PHY frame lifecycle, MAC defer decisions, conflict-map
// mutations, dynamics events — through a TraceSink as length-prefixed
// varint-encoded records (docs/trace_format.md).
//
// Cost model: every instrumented component holds a TraceHook, bound once at
// construction and its only way to reach a Tracer. The hook's category
// mask is cached at bind time, so the disabled hot path pays exactly one
// branch (`mask & bit`) per site — no virtual call, no pointer chase. With
// tracing off entirely the mask is zero. High-rate categories can be
// decimated per category via TraceConfig::sample_every (every-Nth, chosen
// over reservoir sampling because it streams — no buffering, and the kept
// subset is deterministic).
//
// Records carry only simulated time and simulation state — never wall-clock
// time or fresh randomness — and recording draws nothing from any sim::Rng
// and schedules no events, so (a) the same run config + seed produces a
// byte-identical trace file, and (b) enabling tracing cannot change any
// simulation result (golden-tested in tests/scenario/test_trace_golden.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/assert.h"
#include "sim/time.h"

namespace cmap::trace {

enum class Category : std::uint8_t {
  kPhyTx = 0,        // frame put on the air
  kPhyRx = 1,        // locked frame finished: per-frame decode verdict
  kPhyCollision = 2, // reception lost: preamble SINR / capture / own tx
  kMacDefer = 3,     // CMAP send decision, with the blocking reason
  kDeferTable = 4,   // conflict-map entry insert / TTL refresh / expiry
  kOngoing = 5,      // ongoing-list note / update / expiry
  kMove = 6,         // a mobile node's position update
  kChannelEpoch = 7, // channel-dynamics epoch advanced (full gain refresh)
  kCount
};

inline constexpr std::size_t kCategoryCount =
    static_cast<std::size_t>(Category::kCount);

constexpr std::uint32_t bit(Category c) {
  return 1u << static_cast<std::uint32_t>(c);
}

inline constexpr std::uint32_t kPhyCategories =
    bit(Category::kPhyTx) | bit(Category::kPhyRx) | bit(Category::kPhyCollision);
inline constexpr std::uint32_t kMacCategories =
    bit(Category::kMacDefer) | bit(Category::kDeferTable) |
    bit(Category::kOngoing);
inline constexpr std::uint32_t kDynamicsCategories =
    bit(Category::kMove) | bit(Category::kChannelEpoch);
inline constexpr std::uint32_t kAllCategories =
    (1u << kCategoryCount) - 1;

/// Short stable name for a category ("phy_tx", "mac_defer", ...), used by
/// the dump tool and the format doc.
const char* category_name(Category c);

/// Reasons carried by kMacDefer records.
enum class DeferReason : std::uint8_t {
  kNone = 0,      // decision was "send"
  kDstBusy = 1,   // destination is a party to an ongoing transmission
  kConflictMap = 2  // a defer-table pattern matched an ongoing transmission
};

/// Ops carried by kDeferTable records.
enum class DeferTableOp : std::uint8_t {
  kInsert = 0,   // new entry linked
  kRefresh = 1,  // exact duplicate re-reported: TTL refreshed in place
  kExpire = 2    // expired entry reclaimed (lazy or eager)
};

/// Ops carried by kOngoing records.
enum class OngoingOp : std::uint8_t {
  kNote = 0,    // new (src, dst) pair linked
  kUpdate = 1,  // known pair's end time / rate updated in place
  kExpire = 2   // entry past its end time reclaimed
};

/// Reasons carried by kPhyCollision records.
enum class CollisionReason : std::uint8_t {
  kPreambleSinr = 0,  // preamble did not clear the lock SINR
  kCaptured = 1,      // locked frame lost to a stronger arrival
  kLocalTx = 2        // reception aborted by this node's own transmission
};

/// Stable names of the enum codes above ("dst_busy", "insert", ...), used
/// by describe() and the JSON form of a record.
const char* code_name(DeferReason r);
const char* code_name(DeferTableOp op);
const char* code_name(OngoingOp op);
const char* code_name(CollisionReason r);

struct TraceConfig {
  /// Output file (".cmtrace" by convention). For Sweep-level tracing this
  /// names a directory instead; see scenario::trace_run_path().
  std::string path;
  /// Enabled-category bitmask (bit(Category)). Categories outside the mask
  /// cost one branch at the instrumentation site and nothing else.
  std::uint32_t categories = kAllCategories;
  /// Per-category decimation: keep every Nth record (1 = keep all). Applies
  /// after the mask. kDeferTable must stay at 1 when the trace will feed
  /// DeferTableReplay — dropped mutations would corrupt the reconstruction.
  std::array<std::uint32_t, kCategoryCount> sample_every{1, 1, 1, 1,
                                                         1, 1, 1, 1};

  bool operator==(const TraceConfig&) const = default;
};

/// Byte-stream output abstraction under the Tracer.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const void* data, std::size_t size) = 0;
  virtual void flush() {}
};

/// Buffered file writer; opening failure fails loudly (CMAP_ASSERT, naming
/// the path), a silently empty trace being worse than a dead run.
class FileTraceSink final : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path);
  ~FileTraceSink() override;
  void write(const void* data, std::size_t size) override;
  void flush() override;

 private:
  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> buffer_;
};

/// In-memory sink for unit tests.
class MemoryTraceSink final : public TraceSink {
 public:
  void write(const void* data, std::size_t size) override;
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

namespace wire {
/// LEB128 varint append / zigzag mapping — shared by writer, reader and
/// tests so the two sides cannot drift.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}
/// Decode one varint from [*pos, size); advances *pos. Returns false (and
/// leaves *pos at the malformed byte) on truncation or >10-byte varints.
bool get_varint(const std::uint8_t* data, std::size_t size, std::size_t* pos,
                std::uint64_t* out);

/// How one payload field is put on the wire.
enum class Encoding : std::uint8_t {
  kVarint,  // unsigned integer as a varint
  kZigzag,  // signed integer, zigzag-mapped, as a varint
  kTime,    // non-negative sim::Time as a plain varint (asserted)
  kFlag,    // bool as one byte, 0 or 1
  kCode     // enum as a varint of its value; printed by code_name()
};

/// One entry of a record's field list: its name (the JSON key), the member
/// it reads and writes, and its encoding.
template <Encoding E, class R, class T>
struct Field {
  static constexpr Encoding kEncoding = E;
  const char* name;
  T R::*member;
};

// Field-list entries, one maker per encoding; each rejects a member type
// its encoding cannot carry.
template <class R, class T>
constexpr Field<Encoding::kVarint, R, T> as_varint(const char* name,
                                                   T R::*member) {
  static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>);
  return {name, member};
}
template <class R, class T>
constexpr Field<Encoding::kZigzag, R, T> as_zigzag(const char* name,
                                                   T R::*member) {
  static_assert(std::is_signed_v<T>);
  return {name, member};
}
template <class R>
constexpr Field<Encoding::kTime, R, sim::Time> as_time(
    const char* name, sim::Time R::*member) {
  return {name, member};
}
template <class R>
constexpr Field<Encoding::kFlag, R, bool> as_flag(const char* name,
                                                  bool R::*member) {
  return {name, member};
}
template <class R, class T>
constexpr Field<Encoding::kCode, R, T> as_code(const char* name,
                                               T R::*member) {
  static_assert(std::is_enum_v<T>);
  return {name, member};
}

/// Append one field value in encoding E.
template <Encoding E, class T>
void put(std::vector<std::uint8_t>& out, T v) {
  if constexpr (E == Encoding::kFlag) {
    out.push_back(v ? 1 : 0);
  } else if constexpr (E == Encoding::kZigzag) {
    put_varint(out, zigzag(v));
  } else {
    // Every time field is non-negative (absolute sim times and durations):
    // asserted rather than zigzagged.
    if constexpr (E == Encoding::kTime) {
      CMAP_ASSERT(v >= 0, "negative time in trace record");
    }
    put_varint(out, static_cast<std::uint64_t>(v));
  }
}
}  // namespace wire

// ---- Record payloads ----
// Each record lists its payload fields in wire order in fields(). That
// list is the one description of the layout: Tracer::record encodes
// through it, TraceReader decodes through it, and the JSON form prints
// it (docs/trace_format.md mirrors it). Every field is an integer, so
// decoded records compare exactly with ==.

struct PhyTxRecord {
  static constexpr Category kCategory = Category::kPhyTx;
  std::uint32_t node = 0;
  std::uint64_t frame_id = 0;
  std::uint32_t rate = 0;
  std::uint32_t bytes = 0;
  sim::Time duration = 0;

  static constexpr auto fields() {
    using R = PhyTxRecord;
    return std::tuple{wire::as_varint("node", &R::node),
                      wire::as_varint("frame", &R::frame_id),
                      wire::as_varint("rate", &R::rate),
                      wire::as_varint("bytes", &R::bytes),
                      wire::as_time("duration", &R::duration)};
  }
  bool operator==(const PhyTxRecord&) const = default;
};

struct PhyRxRecord {
  static constexpr Category kCategory = Category::kPhyRx;
  std::uint32_t node = 0;
  std::uint64_t frame_id = 0;
  std::uint32_t tx_node = 0;
  bool ok = false;
  std::int32_t min_sinr_cdb = 0;  // centi-dB, clamped

  static constexpr auto fields() {
    using R = PhyRxRecord;
    return std::tuple{wire::as_varint("node", &R::node),
                      wire::as_varint("frame", &R::frame_id),
                      wire::as_varint("from", &R::tx_node),
                      wire::as_flag("ok", &R::ok),
                      wire::as_zigzag("min_sinr_cdb", &R::min_sinr_cdb)};
  }
  bool operator==(const PhyRxRecord&) const = default;
};

struct PhyCollisionRecord {
  static constexpr Category kCategory = Category::kPhyCollision;
  std::uint32_t node = 0;
  std::uint64_t frame_id = 0;
  CollisionReason reason = CollisionReason::kPreambleSinr;

  static constexpr auto fields() {
    using R = PhyCollisionRecord;
    return std::tuple{wire::as_varint("node", &R::node),
                      wire::as_varint("frame", &R::frame_id),
                      wire::as_code("reason", &R::reason)};
  }
  bool operator==(const PhyCollisionRecord&) const = default;
};

struct MacDeferRecord {
  static constexpr Category kCategory = Category::kMacDefer;
  std::uint32_t node = 0;
  std::uint32_t dst = 0;
  bool deferred = false;
  DeferReason reason = DeferReason::kNone;
  std::uint32_t blocker_src = 0;
  std::uint32_t blocker_dst = 0;
  sim::Time until = 0;

  static constexpr auto fields() {
    using R = MacDeferRecord;
    return std::tuple{wire::as_varint("node", &R::node),
                      wire::as_varint("dst", &R::dst),
                      wire::as_flag("deferred", &R::deferred),
                      wire::as_code("reason", &R::reason),
                      wire::as_varint("blocker_src", &R::blocker_src),
                      wire::as_varint("blocker_dst", &R::blocker_dst),
                      wire::as_time("until", &R::until)};
  }
  bool operator==(const MacDeferRecord&) const = default;
};

struct DeferTableRecord {
  static constexpr Category kCategory = Category::kDeferTable;
  std::uint32_t node = 0;
  DeferTableOp op = DeferTableOp::kInsert;
  std::uint32_t dst = 0;
  std::uint32_t src = 0;
  std::uint32_t via = 0;
  std::uint32_t my_rate = 0;
  std::uint32_t their_rate = 0;
  sim::Time expires = 0;

  static constexpr auto fields() {
    using R = DeferTableRecord;
    return std::tuple{wire::as_varint("node", &R::node),
                      wire::as_code("op", &R::op),
                      wire::as_varint("dst", &R::dst),
                      wire::as_varint("src", &R::src),
                      wire::as_varint("via", &R::via),
                      wire::as_varint("my_rate", &R::my_rate),
                      wire::as_varint("their_rate", &R::their_rate),
                      wire::as_time("expires", &R::expires)};
  }
  bool operator==(const DeferTableRecord&) const = default;
};

struct OngoingRecord {
  static constexpr Category kCategory = Category::kOngoing;
  std::uint32_t node = 0;
  OngoingOp op = OngoingOp::kNote;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  sim::Time end_time = 0;

  static constexpr auto fields() {
    using R = OngoingRecord;
    return std::tuple{wire::as_varint("node", &R::node),
                      wire::as_code("op", &R::op),
                      wire::as_varint("src", &R::src),
                      wire::as_varint("dst", &R::dst),
                      wire::as_time("end", &R::end_time)};
  }
  bool operator==(const OngoingRecord&) const = default;
};

struct MoveRecord {
  static constexpr Category kCategory = Category::kMove;
  std::uint32_t node = 0;
  std::int64_t x_mm = 0;
  std::int64_t y_mm = 0;

  /// A position in metres, truncated toward zero to whole millimetres.
  /// The doubles being truncated are deterministic sim state, so the
  /// record is too.
  static MoveRecord from_metres(std::uint32_t node, double x_m, double y_m) {
    return {node, static_cast<std::int64_t>(x_m * 1000.0),
            static_cast<std::int64_t>(y_m * 1000.0)};
  }

  static constexpr auto fields() {
    using R = MoveRecord;
    return std::tuple{wire::as_varint("node", &R::node),
                      wire::as_zigzag("x_mm", &R::x_mm),
                      wire::as_zigzag("y_mm", &R::y_mm)};
  }
  bool operator==(const MoveRecord&) const = default;
};

struct ChannelEpochRecord {
  static constexpr Category kCategory = Category::kChannelEpoch;
  std::uint64_t epoch = 0;

  static constexpr auto fields() {
    return std::tuple{wire::as_varint("epoch", &ChannelEpochRecord::epoch)};
  }
  bool operator==(const ChannelEpochRecord&) const = default;
};

/// Serializes records for one run. Construction writes the file header;
/// record() is a no-op for categories outside the config mask (but call
/// sites should pre-filter through a TraceHook so the disabled path never
/// reaches the call). Code reaches a Tracer only through the
/// TraceHook it bound at construction; there is no ambient "current" tracer.
class Tracer {
 public:
  explicit Tracer(const TraceConfig& config,
                  std::unique_ptr<TraceSink> sink = nullptr);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint32_t categories() const { return config_.categories; }
  bool wants(Category c) const { return (config_.categories & bit(c)) != 0; }
  /// Records actually written so far (post-mask, post-sampling). The replay
  /// consistency test uses this as an exact stream position marker.
  std::uint64_t records_written() const { return records_; }
  void flush() { sink_->flush(); }

  /// Append one record at `now`; a no-op for a category outside the mask
  /// or one that sampling skips.
  template <class R>
  void record(sim::Time now, const R& r) {
    if (wants(R::kCategory) && sample(R::kCategory)) write(now, r);
  }

  /// Append one record at `now` without sampling it (a no-op for a
  /// category outside the mask): for records sampled when first written,
  /// as trace::merge_streams copies them.
  template <class R>
  void record_unsampled(sim::Time now, const R& r) {
    if (wants(R::kCategory)) write(now, r);
  }

 private:
  template <class R>
  void write(sim::Time now, const R& r) {
    body_.clear();
    std::apply(
        [&](const auto&... f) {
          (wire::put<std::decay_t<decltype(f)>::kEncoding>(body_,
                                                           r.*f.member),
           ...);
        },
        R::fields());
    emit(R::kCategory, now);
  }

  bool sample(Category c);
  void emit(Category c, sim::Time now);

  TraceConfig config_;
  std::unique_ptr<TraceSink> sink_;
  sim::Time last_tick_ = 0;
  std::uint64_t records_ = 0;
  std::array<std::uint64_t, kCategoryCount> seen_{};
  std::vector<std::uint8_t> body_;    // payload fields
  std::vector<std::uint8_t> head_;    // category + tick delta
  std::vector<std::uint8_t> prefix_;  // length varint
};

/// The per-component handle instrumentation sites check. `mask` caches the
/// tracer's category mask at bind time, so a disabled site costs exactly
/// one branch; `self` carries the owning node's id for components that do
/// not otherwise know it (DeferTable, OngoingList).
struct TraceHook {
  Tracer* tracer = nullptr;
  std::uint32_t mask = 0;
  std::uint32_t self = 0;

  void bind(Tracer* t, std::uint32_t self_id = 0) {
    tracer = t;
    mask = t != nullptr ? t->categories() : 0;
    self = self_id;
  }
  bool wants(Category c) const { return (mask & bit(c)) != 0; }
};

}  // namespace cmap::trace

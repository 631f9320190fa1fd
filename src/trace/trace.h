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
#include <vector>

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
}  // namespace wire

/// Serializes records for one run. Construction writes the file header;
/// every emitter is a no-op for categories outside the config mask (but
/// call sites should pre-filter through a TraceHook so the disabled path
/// never reaches the call). Code reaches a Tracer only through the
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

  // ---- Typed emitters (field layouts in docs/trace_format.md) ----
  void phy_tx(sim::Time now, std::uint32_t node, std::uint64_t frame_id,
              std::uint32_t rate, std::uint32_t bytes, sim::Time duration);
  void phy_rx(sim::Time now, std::uint32_t node, std::uint64_t frame_id,
              std::uint32_t tx_node, bool ok, std::int32_t min_sinr_cdb);
  void phy_collision(sim::Time now, std::uint32_t node,
                     std::uint64_t frame_id, CollisionReason reason);
  void mac_defer(sim::Time now, std::uint32_t node, std::uint32_t dst,
                 bool deferred, DeferReason reason, std::uint32_t blocker_src,
                 std::uint32_t blocker_dst, sim::Time until);
  void defer_table(sim::Time now, std::uint32_t node, DeferTableOp op,
                   std::uint32_t dst, std::uint32_t src, std::uint32_t via,
                   std::uint32_t my_rate, std::uint32_t their_rate,
                   sim::Time expires);
  void ongoing(sim::Time now, std::uint32_t node, OngoingOp op,
               std::uint32_t src, std::uint32_t dst, sim::Time end_time);
  void move(sim::Time now, std::uint32_t node, double x_m, double y_m);
  void channel_epoch(sim::Time now, std::uint64_t epoch);

  /// Re-emit an already-encoded record payload verbatim (merge_streams):
  /// only the length prefix and tick delta are re-encoded against this
  /// stream's position. Masking and sampling still apply.
  void emit_raw(Category c, sim::Time now, const std::uint8_t* body,
                std::size_t size);

 private:
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

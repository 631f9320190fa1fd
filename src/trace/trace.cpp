#include "trace/trace.h"

#include <cstdio>

#include "sim/assert.h"

namespace cmap::trace {
namespace {

constexpr std::size_t kFileBufferBytes = 64 * 1024;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  wire::put_varint(out, v);
}

void put_time(std::vector<std::uint8_t>& out, sim::Time t) {
  // Every time field written today is non-negative (absolute sim times and
  // durations); encode as plain varint, asserted rather than zigzagged.
  CMAP_ASSERT(t >= 0, "negative time in trace record");
  wire::put_varint(out, static_cast<std::uint64_t>(t));
}

}  // namespace

const char* category_name(Category c) {
  switch (c) {
    case Category::kPhyTx:
      return "phy_tx";
    case Category::kPhyRx:
      return "phy_rx";
    case Category::kPhyCollision:
      return "phy_collision";
    case Category::kMacDefer:
      return "mac_defer";
    case Category::kDeferTable:
      return "defer_table";
    case Category::kOngoing:
      return "ongoing";
    case Category::kMove:
      return "move";
    case Category::kChannelEpoch:
      return "channel_epoch";
    case Category::kCount:
      break;
  }
  return "?";
}

namespace wire {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

bool get_varint(const std::uint8_t* data, std::size_t size, std::size_t* pos,
                std::uint64_t* out) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= size) return false;  // truncated mid-varint
    const std::uint8_t b = data[(*pos)++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;  // >10 bytes: not a valid varint
}

}  // namespace wire

FileTraceSink::FileTraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "wb")) {
  CMAP_ASSERT(file_ != nullptr,
              ("cannot open trace file for writing: " + path).c_str());
  buffer_.reserve(kFileBufferBytes);
}

FileTraceSink::~FileTraceSink() {
  flush();
  std::fclose(file_);
}

void FileTraceSink::write(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  if (buffer_.size() + size > kFileBufferBytes) flush();
  if (size > kFileBufferBytes) {
    std::fwrite(bytes, 1, size, file_);
    return;
  }
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void FileTraceSink::flush() {
  if (!buffer_.empty()) {
    std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    buffer_.clear();
  }
  std::fflush(file_);
}

void MemoryTraceSink::write(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

Tracer::Tracer(const TraceConfig& config, std::unique_ptr<TraceSink> sink)
    : config_(config), sink_(std::move(sink)) {
  for (std::uint32_t every : config_.sample_every) {
    CMAP_ASSERT(every >= 1, "sample_every must be >= 1");
  }
  if (!sink_) sink_ = std::make_unique<FileTraceSink>(config_.path);
  // Header: magic, version, category mask, per-category sampling — enough
  // for a reader to interpret the stream without the run config.
  body_.assign({'C', 'M', 'T', 'R', 1});  // magic, then version 1
  wire::put_varint(body_, config_.categories);
  wire::put_varint(body_, kCategoryCount);
  for (std::uint32_t every : config_.sample_every) {
    wire::put_varint(body_, every);
  }
  sink_->write(body_.data(), body_.size());
}

Tracer::~Tracer() { sink_->flush(); }

bool Tracer::sample(Category c) {
  const std::size_t i = static_cast<std::size_t>(c);
  return seen_[i]++ % config_.sample_every[i] == 0;
}

void Tracer::emit(Category c, sim::Time now) {
  // Records are written from inside simulation events, so time is
  // monotonically non-decreasing — the tick is stored as a delta.
  CMAP_ASSERT(now >= last_tick_, "trace records must be time-ordered");
  head_.clear();
  wire::put_varint(head_, static_cast<std::uint64_t>(c));
  wire::put_varint(head_, static_cast<std::uint64_t>(now - last_tick_));
  prefix_.clear();
  wire::put_varint(prefix_, head_.size() + body_.size());
  sink_->write(prefix_.data(), prefix_.size());
  sink_->write(head_.data(), head_.size());
  sink_->write(body_.data(), body_.size());
  last_tick_ = now;
  ++records_;
}

void Tracer::phy_tx(sim::Time now, std::uint32_t node, std::uint64_t frame_id,
                    std::uint32_t rate, std::uint32_t bytes,
                    sim::Time duration) {
  if (!wants(Category::kPhyTx) || !sample(Category::kPhyTx)) return;
  body_.clear();
  put_u32(body_, node);
  wire::put_varint(body_, frame_id);
  put_u32(body_, rate);
  put_u32(body_, bytes);
  put_time(body_, duration);
  emit(Category::kPhyTx, now);
}

void Tracer::phy_rx(sim::Time now, std::uint32_t node, std::uint64_t frame_id,
                    std::uint32_t tx_node, bool ok, std::int32_t min_sinr_cdb) {
  if (!wants(Category::kPhyRx) || !sample(Category::kPhyRx)) return;
  body_.clear();
  put_u32(body_, node);
  wire::put_varint(body_, frame_id);
  put_u32(body_, tx_node);
  body_.push_back(ok ? 1 : 0);
  wire::put_varint(body_, wire::zigzag(min_sinr_cdb));
  emit(Category::kPhyRx, now);
}

void Tracer::phy_collision(sim::Time now, std::uint32_t node,
                           std::uint64_t frame_id, CollisionReason reason) {
  if (!wants(Category::kPhyCollision) || !sample(Category::kPhyCollision)) {
    return;
  }
  body_.clear();
  put_u32(body_, node);
  wire::put_varint(body_, frame_id);
  put_u32(body_, static_cast<std::uint32_t>(reason));
  emit(Category::kPhyCollision, now);
}

void Tracer::mac_defer(sim::Time now, std::uint32_t node, std::uint32_t dst,
                       bool deferred, DeferReason reason,
                       std::uint32_t blocker_src, std::uint32_t blocker_dst,
                       sim::Time until) {
  if (!wants(Category::kMacDefer) || !sample(Category::kMacDefer)) return;
  body_.clear();
  put_u32(body_, node);
  put_u32(body_, dst);
  body_.push_back(deferred ? 1 : 0);
  put_u32(body_, static_cast<std::uint32_t>(reason));
  put_u32(body_, blocker_src);
  put_u32(body_, blocker_dst);
  put_time(body_, until);
  emit(Category::kMacDefer, now);
}

void Tracer::defer_table(sim::Time now, std::uint32_t node, DeferTableOp op,
                         std::uint32_t dst, std::uint32_t src,
                         std::uint32_t via, std::uint32_t my_rate,
                         std::uint32_t their_rate, sim::Time expires) {
  if (!wants(Category::kDeferTable) || !sample(Category::kDeferTable)) return;
  body_.clear();
  put_u32(body_, node);
  put_u32(body_, static_cast<std::uint32_t>(op));
  put_u32(body_, dst);
  put_u32(body_, src);
  put_u32(body_, via);
  put_u32(body_, my_rate);
  put_u32(body_, their_rate);
  put_time(body_, expires);
  emit(Category::kDeferTable, now);
}

void Tracer::ongoing(sim::Time now, std::uint32_t node, OngoingOp op,
                     std::uint32_t src, std::uint32_t dst, sim::Time end_time) {
  if (!wants(Category::kOngoing) || !sample(Category::kOngoing)) return;
  body_.clear();
  put_u32(body_, node);
  put_u32(body_, static_cast<std::uint32_t>(op));
  put_u32(body_, src);
  put_u32(body_, dst);
  put_time(body_, end_time);
  emit(Category::kOngoing, now);
}

void Tracer::move(sim::Time now, std::uint32_t node, double x_m, double y_m) {
  if (!wants(Category::kMove) || !sample(Category::kMove)) return;
  body_.clear();
  put_u32(body_, node);
  // Millimetre resolution keeps positions integral (and the file
  // deterministic across libm variations is NOT a concern here: the
  // doubles being rounded are themselves deterministic sim state).
  wire::put_varint(body_, wire::zigzag(static_cast<std::int64_t>(x_m * 1000.0)));
  wire::put_varint(body_, wire::zigzag(static_cast<std::int64_t>(y_m * 1000.0)));
  emit(Category::kMove, now);
}

void Tracer::channel_epoch(sim::Time now, std::uint64_t epoch) {
  if (!wants(Category::kChannelEpoch) || !sample(Category::kChannelEpoch)) {
    return;
  }
  body_.clear();
  wire::put_varint(body_, epoch);
  emit(Category::kChannelEpoch, now);
}

void Tracer::emit_raw(Category c, sim::Time now, const std::uint8_t* body,
                      std::size_t size) {
  if (!wants(c) || !sample(c)) return;
  body_.assign(body, body + size);
  emit(c, now);
}

}  // namespace cmap::trace

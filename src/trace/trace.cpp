#include "trace/trace.h"

#include <cstdio>

#include "sim/assert.h"

namespace cmap::trace {
namespace {

constexpr std::size_t kFileBufferBytes = 64 * 1024;

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

const char* code_name(DeferReason r) {
  switch (r) {
    case DeferReason::kNone: return "none";
    case DeferReason::kDstBusy: return "dst_busy";
    case DeferReason::kConflictMap: return "conflict_map";
  }
  return "?";
}

const char* code_name(DeferTableOp op) {
  switch (op) {
    case DeferTableOp::kInsert: return "insert";
    case DeferTableOp::kRefresh: return "refresh";
    case DeferTableOp::kExpire: return "expire";
  }
  return "?";
}

const char* code_name(OngoingOp op) {
  switch (op) {
    case OngoingOp::kNote: return "note";
    case OngoingOp::kUpdate: return "update";
    case OngoingOp::kExpire: return "expire";
  }
  return "?";
}

const char* code_name(CollisionReason r) {
  switch (r) {
    case CollisionReason::kPreambleSinr: return "preamble_sinr";
    case CollisionReason::kCaptured: return "captured";
    case CollisionReason::kLocalTx: return "local_tx";
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

}  // namespace cmap::trace

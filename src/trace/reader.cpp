#include "trace/reader.h"

#include <array>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace cmap::trace {
namespace {

// Bounded field decoder over one record's payload bytes.
struct FieldReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  template <wire::Encoding E, class T>
  void get(T& v) {
    if constexpr (E == wire::Encoding::kFlag) {
      if (pos >= size) {
        ok = false;
        return;
      }
      v = data[pos++] != 0;
    } else {
      std::uint64_t u = 0;
      if (!wire::get_varint(data, size, &pos, &u)) ok = false;
      if constexpr (E == wire::Encoding::kZigzag) {
        v = static_cast<T>(wire::unzigzag(u));
      } else {
        v = static_cast<T>(u);
      }
    }
  }
  /// All payload bytes consumed, nothing trailing.
  bool done() const { return ok && pos == size; }
};

// Decode payload bytes as body alternative I (Category I) through its
// field list.
template <std::size_t I>
bool decode_as(FieldReader& f, Record::Body* out) {
  std::variant_alternative_t<I, Record::Body> r;
  std::apply(
      [&](const auto&... field) {
        (f.get<std::decay_t<decltype(field)>::kEncoding>(r.*field.member),
         ...);
      },
      r.fields());
  *out = r;
  return f.done();
}

// One decoder per category, indexed by the category value.
template <std::size_t... I>
constexpr auto make_decoders(std::index_sequence<I...>) {
  return std::array{&decode_as<I>...};
}
constexpr auto kDecoders =
    make_decoders(std::make_index_sequence<kCategoryCount>{});

template <std::size_t... I>
constexpr bool body_order_matches_categories(std::index_sequence<I...>) {
  return ((std::variant_alternative_t<I, Record::Body>::kCategory ==
           static_cast<Category>(I)) &&
          ...);
}
static_assert(std::variant_size_v<Record::Body> == kCategoryCount &&
                  body_order_matches_categories(
                      std::make_index_sequence<kCategoryCount>{}),
              "Record::Body must list one alternative per Category, in "
              "Category order");

}  // namespace

TraceReader::TraceReader(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    fail("cannot open '" + path + "'");
    return;
  }
  char buf[64 * 1024];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes_.insert(bytes_.end(), buf, buf + n);
  }
  std::fclose(f);
  parse_header();
}

TraceReader::TraceReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {
  parse_header();
}

void TraceReader::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
}

void TraceReader::parse_header() {
  if (bytes_.size() < 5 || bytes_[0] != 'C' || bytes_[1] != 'M' ||
      bytes_[2] != 'T' || bytes_[3] != 'R') {
    fail("not a cmtrace file (bad magic)");
    return;
  }
  if (bytes_[4] != 1) {
    fail("unsupported cmtrace version " + std::to_string(bytes_[4]));
    return;
  }
  pos_ = 5;
  std::uint64_t mask = 0, count = 0;
  if (!wire::get_varint(bytes_.data(), bytes_.size(), &pos_, &mask) ||
      !wire::get_varint(bytes_.data(), bytes_.size(), &pos_, &count)) {
    fail("truncated header");
    return;
  }
  if (count > 64) {
    fail("implausible category count in header");
    return;
  }
  categories_ = static_cast<std::uint32_t>(mask);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t every = 0;
    if (!wire::get_varint(bytes_.data(), bytes_.size(), &pos_, &every)) {
      fail("truncated header");
      return;
    }
    sample_every_.push_back(static_cast<std::uint32_t>(every));
  }
}

bool TraceReader::next(Record* out) {
  if (!ok() || pos_ >= bytes_.size()) return false;
  const std::size_t record_start = pos_;
  std::uint64_t len = 0;
  if (!wire::get_varint(bytes_.data(), bytes_.size(), &pos_, &len)) {
    fail("truncated record length at byte " + std::to_string(record_start));
    return false;
  }
  if (pos_ + len > bytes_.size()) {
    fail("truncated record at byte " + std::to_string(record_start) +
         " (need " + std::to_string(len) + " bytes, have " +
         std::to_string(bytes_.size() - pos_) + ")");
    return false;
  }
  const std::size_t end = pos_ + static_cast<std::size_t>(len);
  std::uint64_t cat = 0, delta = 0;
  if (!wire::get_varint(bytes_.data(), end, &pos_, &cat) ||
      !wire::get_varint(bytes_.data(), end, &pos_, &delta)) {
    fail("truncated record header at byte " + std::to_string(record_start));
    return false;
  }
  if (cat >= kCategoryCount) {
    fail("unknown category " + std::to_string(cat) + " at byte " +
         std::to_string(record_start));
    return false;
  }
  out->category = static_cast<Category>(cat);
  last_tick_ += static_cast<sim::Time>(delta);
  out->tick = last_tick_;
  FieldReader f{bytes_.data() + pos_, end - pos_};
  if (!kDecoders[cat](f, &out->body)) {
    fail(std::string("malformed ") + category_name(out->category) +
         " payload at byte " + std::to_string(record_start));
    return false;
  }
  pos_ = end;
  return true;
}

std::vector<Record> read_all(const std::string& path, std::string* error) {
  TraceReader reader(path);
  std::vector<Record> records;
  Record r;
  while (reader.next(&r)) records.push_back(r);
  if (error != nullptr) *error = reader.error();
  return records;
}

void DeferTableReplay::apply(const Record& r) {
  if (r.category != Category::kDeferTable) return;
  const auto& d = std::get<DeferTableRecord>(r.body);
  auto& table = tables_[d.node];
  const Key key{d.dst, d.src, d.via, d.my_rate, d.their_rate};
  switch (d.op) {
    case DeferTableOp::kInsert:
    case DeferTableOp::kRefresh:
      table[key] = d.expires;
      break;
    case DeferTableOp::kExpire:
      // Reclamation only ever drops entries whose TTL lapsed; liveness is
      // decided by `expires` alone, so nothing to do (see class comment).
      break;
  }
}

std::vector<DeferTableReplay::Entry> DeferTableReplay::live(
    std::uint32_t node, sim::Time at) const {
  std::vector<Entry> out;
  const auto it = tables_.find(node);
  if (it == tables_.end()) return out;
  for (const auto& [key, expires] : it->second) {
    if (expires <= at) continue;
    Entry e;
    e.dst = std::get<0>(key);
    e.src = std::get<1>(key);
    e.via = std::get<2>(key);
    e.my_rate = std::get<3>(key);
    e.their_rate = std::get<4>(key);
    e.expires = expires;
    out.push_back(e);
  }
  return out;  // std::map iteration == canonical key order
}

std::vector<std::uint32_t> DeferTableReplay::nodes() const {
  std::vector<std::uint32_t> out;
  out.reserve(tables_.size());
  for (const auto& [node, table] : tables_) out.push_back(node);
  return out;
}

void OngoingReplay::apply(const Record& r) {
  if (r.category != Category::kOngoing) return;
  const auto& o = std::get<OngoingRecord>(r.body);
  auto& list = lists_[o.node];
  const Key key{o.src, o.dst};
  switch (o.op) {
    case OngoingOp::kNote:
    case OngoingOp::kUpdate:
      list[key] = o.end_time;
      break;
    case OngoingOp::kExpire:
      // Reclamation only drops entries whose end time already passed;
      // liveness is decided by end_time alone (see class comment).
      break;
  }
}

std::vector<OngoingReplay::Entry> OngoingReplay::live(std::uint32_t node,
                                                      sim::Time at) const {
  std::vector<Entry> out;
  const auto it = lists_.find(node);
  if (it == lists_.end()) return out;
  for (const auto& [key, end_time] : it->second) {
    // Exclusive boundary, matching OngoingList: at == end_time is dead.
    if (end_time <= at) continue;
    out.push_back(Entry{key.first, key.second, end_time});
  }
  return out;  // std::map iteration == canonical (src, dst) order
}

std::vector<std::uint32_t> OngoingReplay::nodes() const {
  std::vector<std::uint32_t> out;
  out.reserve(lists_.size());
  for (const auto& [node, list] : lists_) out.push_back(node);
  return out;
}

namespace {

void appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// "*" for the broadcast wildcard id in defer-table patterns.
std::string id_or_star(std::uint32_t id) {
  if (id == 0xffffffffu) return "*";
  return std::to_string(id);
}

// ,"name":value for one field, by its encoding.
template <class F, class T>
void append_json(std::string* out, const F& field, T v) {
  appendf(out, ",\"%s\":", field.name);
  constexpr wire::Encoding kE = F::kEncoding;
  if constexpr (kE == wire::Encoding::kFlag) {
    *out += v ? "true" : "false";
  } else if constexpr (kE == wire::Encoding::kCode) {
    appendf(out, "\"%s\"", code_name(v));
  } else if constexpr (kE == wire::Encoding::kVarint) {
    appendf(out, "%" PRIu64, static_cast<std::uint64_t>(v));
  } else {
    appendf(out, "%" PRId64, static_cast<std::int64_t>(v));
  }
}

}  // namespace

std::string describe(const Record& r) {
  std::string out;
  appendf(&out, "%14" PRId64 " %-13s", r.tick, category_name(r.category));
  switch (r.category) {
    case Category::kPhyTx: {
      const auto& b = std::get<PhyTxRecord>(r.body);
      appendf(&out, " node=%u frame=%" PRIu64 " rate=%u bytes=%u dur=%" PRId64,
              b.node, b.frame_id, b.rate, b.bytes, b.duration);
      break;
    }
    case Category::kPhyRx: {
      const auto& b = std::get<PhyRxRecord>(r.body);
      appendf(&out, " node=%u frame=%" PRIu64 " from=%u ok=%d min_sinr=%.2fdB",
              b.node, b.frame_id, b.tx_node, b.ok ? 1 : 0,
              b.min_sinr_cdb / 100.0);
      break;
    }
    case Category::kPhyCollision: {
      const auto& b = std::get<PhyCollisionRecord>(r.body);
      appendf(&out, " node=%u frame=%" PRIu64 " reason=%s", b.node, b.frame_id,
              code_name(b.reason));
      break;
    }
    case Category::kMacDefer: {
      const auto& b = std::get<MacDeferRecord>(r.body);
      appendf(&out, " node=%u dst=%u decision=%s", b.node, b.dst,
              b.deferred ? "defer" : "send");
      if (b.deferred) {
        appendf(&out, " reason=%s blocker=%u->%u until=%" PRId64,
                code_name(b.reason), b.blocker_src, b.blocker_dst, b.until);
      }
      break;
    }
    case Category::kDeferTable: {
      const auto& b = std::get<DeferTableRecord>(r.body);
      appendf(&out,
              " node=%u op=%s pattern=(%s: %s->%s) rates=%u/%u"
              " expires=%" PRId64,
              b.node, code_name(b.op), id_or_star(b.dst).c_str(),
              id_or_star(b.src).c_str(), id_or_star(b.via).c_str(), b.my_rate,
              b.their_rate, b.expires);
      break;
    }
    case Category::kOngoing: {
      const auto& b = std::get<OngoingRecord>(r.body);
      appendf(&out, " node=%u op=%s tx=%u->%u end=%" PRId64, b.node,
              code_name(b.op), b.src, b.dst, b.end_time);
      break;
    }
    case Category::kMove: {
      const auto& b = std::get<MoveRecord>(r.body);
      appendf(&out, " node=%u x=%.3fm y=%.3fm", b.node, b.x_mm / 1000.0,
              b.y_mm / 1000.0);
      break;
    }
    case Category::kChannelEpoch: {
      const auto& b = std::get<ChannelEpochRecord>(r.body);
      appendf(&out, " epoch=%" PRIu64, b.epoch);
      break;
    }
    case Category::kCount:
      break;
  }
  return out;
}

std::string to_json(const Record& r) {
  std::string out;
  appendf(&out, "{\"tick\":%" PRId64 ",\"category\":\"%s\"", r.tick,
          category_name(r.category));
  std::visit(
      [&](const auto& b) {
        std::apply(
            [&](const auto&... f) { (append_json(&out, f, b.*f.member), ...); },
            b.fields());
      },
      r.body);
  out += '}';
  return out;
}

Divergence first_divergence(TraceReader& a, TraceReader& b) {
  Divergence d;
  for (std::uint64_t i = 0;; ++i) {
    Record ra, rb;
    const bool have_a = a.next(&ra);
    const bool have_b = b.next(&rb);
    d.index = i;  // on a clean non-divergence this ends as the record count
    if (!have_a && !have_b) return d;  // both ended together: no divergence
    if (have_a != have_b) {
      d.diverged = true;
      d.a_ended = !have_a;
      d.b_ended = !have_b;
      if (have_a) d.a = ra;
      if (have_b) d.b = rb;
      return d;
    }
    if (ra != rb) {
      d.diverged = true;
      d.a = ra;
      d.b = rb;
      return d;
    }
  }
}

}  // namespace cmap::trace

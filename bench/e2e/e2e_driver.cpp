// End-to-end benchmark driver (bench/e2e/README.md). One process runs one
// workload. It builds the workload's canonical testbed, draws its flows and
// derives the run seeds from --seed as a sweep would, and then either
//   --trace 0  times untraced runs and reports the end-to-end metrics, or
//   --trace 1  re-runs the same world under an outside-in tracer and reports
//              the per-layer metrics.
// The tracer only uses public APIs: it drives the serial event queue the way
// Simulator::run_until does, times every event and every MAC upcall (through
// a forwarding phy::RadioListener), and attributes each event to a layer by
// which metrics::Registry counters it moved. No layer code is instrumented
// for this benchmark.
//
// Output: one `workload metric value unit` line per metric, then, as the last
// line, the JSON result object run.py relays.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.h"
#include "phy/radio.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "sim/event_queue.h"
#include "testbed/experiment.h"
#include "testbed/testbed.h"

// ---- Allocation counter ----
// Replacement global allocation functions that count calls on the current
// thread while t_count_allocs is set — only around traced serial event
// loops, so every other allocation pays one branch. The count is a pure
// function of the simulated work, which makes sim.allocs_per_event exact.
namespace {
thread_local bool t_count_allocs = false;
thread_local std::uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (t_count_allocs) ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cmap;
using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) / 1e9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Peak resident set size of this process image: VmHWM. Not ru_maxrss,
// which Linux carries over from the parent across exec, so under run.py it
// would report the Python interpreter's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- Machine-speed probe ----
// The benchmark box is shared: other load on the machine slowed the same
// run by up to 1.7x over a few minutes, far beyond the bounds in
// BENCHMARK.json. So every timed slice and every set-up is preceded by this
// fixed floating-point kernel, which calls no project code, and its wall
// time is divided by the kernel's slowdown against kProbeReferenceS: the
// kernel's time on an idle core of the 4-core 2.0 GHz Xeon the bounds were
// set on. The README gives the spreads with and without it.
constexpr double kProbeReferenceS = 0.002;

double machine_slowdown() {
  const Clock::time_point t0 = Clock::now();
  double sink = 0.0;
  double x = 1.000001;
  for (int i = 0; i < 150000; ++i) {
    sink += std::sqrt(std::exp(std::log(x) * 0.5));
    x += 1e-9;
  }
  const double s = seconds_between(t0, Clock::now());
  volatile double guard = sink;  // keeps the loop
  (void)guard;
  return s / kProbeReferenceS;
}

// ---- Workloads ----
// Why each exists is recorded in BENCHMARK.json and the README. Durations
// keep one run at about 2 s of wall time, so a 20 s measurement takes ten of
// them. A mobile run's cost depends on where its seed moves the nodes, so
// each timed mobile run covers two independent seeds.
constexpr int kPdesThreads = 4;

struct Workload {
  const char* name;
  const char* scenario;
  testbed::Scheme scheme;
  sim::Time duration;  // per run
  sim::Time warmup;
  int partitions;  // > 1: timed runs are partitioned; a serial oracle checks
  int setup_reps;
  int replicates;  // independent run seeds per timed run
};

const Workload kWorkloads[] = {
    {"dense_cmap", "flows_50", testbed::Scheme::kCmap, sim::seconds(1),
     sim::milliseconds(250), 1, 15, 1},
    {"dense_cs", "flows_50", testbed::Scheme::kCsma, sim::seconds(2),
     sim::milliseconds(500), 1, 15, 1},
    {"mobile", "mobile_floor_50", testbed::Scheme::kCmap, sim::seconds(3),
     sim::milliseconds(750), 1, 15, 2},
    {"metro10k", "metro_10k", testbed::Scheme::kCmap, sim::seconds(1.5),
     sim::milliseconds(375), 4, 5, 1},
};

// ---- Set-up: testbed build + topology draw + World construction ----
struct Setup {
  std::unique_ptr<testbed::Testbed> tb;
  std::vector<testbed::Flow> flows;
  testbed::RunConfig config;  // timed-run config (partitioned on metro10k)
  std::vector<std::uint64_t> seeds;  // run seed of each replicate
  double build_s = 0.0;
  double draw_s = 0.0;
  double total_s = 0.0;
  double slowdown = 1.0;  // machine_slowdown() just before
};

void add_flows(testbed::World& world, const std::vector<testbed::Flow>& flows) {
  for (const testbed::Flow& f : flows) world.add_saturated_flow(f.src, f.dst);
}

Setup set_up(const Workload& w, std::uint64_t seed, bool quick) {
  const scenario::Scenario& scen =
      scenario::ScenarioRegistry::global().at(w.scenario);
  Setup s;
  s.slowdown = machine_slowdown();
  const Clock::time_point t0 = Clock::now();
  s.tb = std::make_unique<testbed::Testbed>(*scen.testbed);
  const Clock::time_point t1 = Clock::now();
  // The flows are the first draw at base seed 1 for every --seed: which
  // flows are drawn changes a run's cost by up to 2x, far more than any
  // bound could absorb. --seed drives the run seeds instead.
  scenario::Sweep sweep;
  sweep.scenario = w.scenario;
  sweep.schemes = {w.scheme};
  sweep.topologies = 1;
  sweep.base_seed = 1;
  const std::vector<scenario::TopologyInstance> topologies =
      scenario::SweepRunner::draw_topologies(sweep, *s.tb);
  if (topologies.empty()) {
    std::fprintf(stderr, "%s: the scenario draws no topology\n", w.name);
    std::exit(3);
  }
  s.flows = topologies.front().flows;
  sweep.base_seed = seed;
  sweep.replicates = w.replicates;
  for (const scenario::RunSpec& spec :
       scenario::SweepRunner::expand(sweep, 1)) {
    s.seeds.push_back(spec.seed);
  }
  s.config = scen.defaults;
  s.config.scheme = w.scheme;
  s.config.duration = quick ? w.duration / 20 : w.duration;
  s.config.warmup = quick ? w.warmup / 20 : w.warmup;
  s.config.seed = s.seeds.front();
  if (w.partitions > 1) {
    s.config.with_partitions(w.partitions).with_pdes_threads(kPdesThreads);
  }
  const Clock::time_point t2 = Clock::now();
  {
    testbed::World world(*s.tb, s.config);
    add_flows(world, s.flows);
    s.total_s = seconds_between(t0, Clock::now());
  }
  s.build_s = seconds_between(t0, t1);
  s.draw_s = seconds_between(t1, t2);
  return s;
}

testbed::RunConfig serial(testbed::RunConfig c) {
  c.pdes = sim::PdesOptions{};
  return c;
}

// ---- Results and the report digest ----
struct Outcome {
  std::uint64_t digest = 0;
  double aggregate_mbps = 0.0;
  bool finite = true;
  double wall_s = 0.0;
  double norm_wall_s = 0.0;  // each slice divided by its probe slowdown
};

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  template <class T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
};

// The per-flow results testbed::run_flows reports, folded into one digest.
Outcome collect(testbed::World& world,
                const std::vector<testbed::Flow>& flows) {
  Outcome out;
  Fnv1a fnv;
  for (const testbed::Flow& f : flows) {
    const double mbps = world.sink(f.dst).meter().mbps();
    const mac::MacStats& st = world.mac(f.src).stats();
    fnv.add(f.src);
    fnv.add(f.dst);
    fnv.add(mbps);
    fnv.add(world.sink(f.dst).unique_packets());
    fnv.add(world.sink(f.dst).duplicate_packets());
    fnv.add(st.data_frames_sent);
    fnv.add(st.retransmissions);
    fnv.add(st.acks_received);
    fnv.add(st.deferrals);
    if (const core::CmapMac* sender = world.cmap(f.src)) {
      fnv.add(sender->counters().vps_sent);
      fnv.add(sender->counters().defer_events);
      fnv.add(sender->counters().retx_timeouts);
    }
    if (const core::CmapMac* receiver = world.cmap(f.dst)) {
      fnv.add(receiver->counters().vps_delim_received);
      fnv.add(receiver->counters().vps_header_received);
    }
    out.finite = out.finite && std::isfinite(mbps) && mbps >= 0.0;
    out.aggregate_mbps += mbps;
  }
  out.digest = fnv.h;
  out.finite = out.finite && out.aggregate_mbps > 0.0;
  return out;
}

// Runs the world to its duration in equal steps of simulated time, each
// timed after its own speed probe. World::run resumes where it stopped, so
// the run is the same as one call.
constexpr int kSlices = 20;

Outcome run_untraced(const Setup& s, const testbed::RunConfig& config) {
  testbed::World world(*s.tb, config);
  add_flows(world, s.flows);
  double wall = 0.0, norm_wall = 0.0;
  for (int i = 1; i <= kSlices; ++i) {
    const double slowdown = machine_slowdown();
    const Clock::time_point t0 = Clock::now();
    world.run(config.duration * i / kSlices);
    const double slice = seconds_between(t0, Clock::now());
    wall += slice;
    norm_wall += slice / slowdown;
  }
  Outcome out = collect(world, s.flows);
  out.wall_s = wall;
  out.norm_wall_s = norm_wall;
  return out;
}

// ---- Spans: log-bucketed histograms plus a bounded raw sample ----
// Eight sub-buckets per power of two (exact below 8 ns): counts and totals
// are exact, percentiles are within one sub-bucket (~6%).
struct Hist {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::array<std::uint64_t, 512> bins{};

  static std::size_t index(std::uint64_t ns) {
    if (ns < 8) return ns;
    const int e = std::bit_width(ns) - 1;
    return static_cast<std::size_t>((e - 2) * 8) + ((ns >> (e - 3)) & 7);
  }
  static double midpoint(std::size_t idx) {
    if (idx < 8) return static_cast<double>(idx);
    const int e = static_cast<int>(idx / 8) + 2;
    const double lo = static_cast<double>((8 + idx % 8) << (e - 3));
    return lo + static_cast<double>(std::uint64_t{1} << (e - 3)) / 2.0;
  }
  void add(std::int64_t ns) {
    ns = std::max<std::int64_t>(ns, 0);
    ++count;
    total_ns += ns;
    ++bins[index(static_cast<std::uint64_t>(ns))];
  }
  Hist& operator+=(const Hist& o) {
    count += o.count;
    total_ns += o.total_ns;
    for (std::size_t i = 0; i < bins.size(); ++i) bins[i] += o.bins[i];
    return *this;
  }
  double percentile(double q) const {
    if (count == 0) return 0.0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins.size(); ++i) {
      seen += bins[i];
      if (seen >= std::max<std::uint64_t>(rank, 1)) return midpoint(i);
    }
    return midpoint(bins.size() - 1);
  }
};

// Event buckets, assigned in this order of precedence (README).
enum Bucket : std::uint8_t {
  kDynamics,
  kPhyTransmit,
  kPhyRxEnd,
  kPhyDeliver,
  kCoreDecide,
  kSimOther,
  kBucketCount,
};
constexpr const char* kBucketName[kBucketCount] = {
    "dynamics", "phy.transmit", "phy.rx_end",
    "phy.deliver", "core.decide", "sim.other"};

struct SpanRecord {
  std::uint32_t id;
  std::uint32_t parent;  // 0 = none
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

constexpr std::size_t kSpanSample = 40000;
constexpr std::uint64_t kProbeSampleEvery = 64;

// Everything the traced runs measured, pooled over traced repetitions.
struct LayerTrace {
  std::array<Hist, kBucketCount> events;  // whole event spans per bucket
  std::array<std::int64_t, kBucketCount> self_ns{};  // minus upcall children
  Hist upcalls;
  const char* upcall_name = "core.upcall";
  // Between two events: next_key() plus the tracer's own bookkeeping. Every
  // kProbeSampleEvery-th gap is split to time next_key() alone.
  std::int64_t gap_ns = 0;
  std::uint64_t gaps = 0;
  std::int64_t probe_sampled_ns = 0;
  std::uint64_t probe_samples = 0;
  std::int64_t loop_ns = 0;
  int reps = 0;
  // Per-rep deterministic counts (every rep must agree).
  std::uint64_t rep_events = 0;
  std::uint64_t rep_allocs = 0;
  bool counts_agree = true;
  // Span bookkeeping for the event currently executing.
  int depth = 0;
  std::int64_t event_upcall_ns = 0;
  std::uint32_t event_id = 0;
  std::uint32_t next_id = 1;
  bool sampling = false;
  Clock::time_point origin;
  std::vector<SpanRecord> spans;

  void sample(std::uint32_t id, std::uint32_t parent, const char* name,
              Clock::time_point a, Clock::time_point b) {
    if (!sampling || spans.size() >= kSpanSample) return;
    spans.push_back({id, parent, name, ns_between(origin, a),
                     ns_between(origin, b)});
  }
  // Mean next_key() time (it includes about one clock read) and its
  // estimated total over all gaps.
  double probe_mean_ns() const {
    return ratio(static_cast<double>(probe_sampled_ns),
                 static_cast<double>(probe_samples));
  }
  double probe_total_ns() const {
    return probe_mean_ns() * static_cast<double>(gaps);
  }
  Hist all_events() const {
    Hist h;
    for (const Hist& e : events) h += e;
    return h;
  }
};

// Times each outermost upcall into the MAC; nested upcalls (a MAC reacting
// to its own transmit's CCA change) are part of their parent.
class UpcallSpan {
 public:
  explicit UpcallSpan(LayerTrace& t) : t_(t), outer_(t.depth++ == 0) {
    if (outer_) start_ = Clock::now();
  }
  ~UpcallSpan() {
    --t_.depth;
    if (!outer_) return;
    const Clock::time_point end = Clock::now();
    const std::int64_t ns = ns_between(start_, end);
    t_.upcalls.add(ns);
    t_.event_upcall_ns += ns;
    t_.sample(t_.next_id++, t_.event_id, t_.upcall_name, start_, end);
  }
  UpcallSpan(const UpcallSpan&) = delete;
  UpcallSpan& operator=(const UpcallSpan&) = delete;

 private:
  LayerTrace& t_;
  bool outer_;
  Clock::time_point start_;
};

// Installed on a radio in place of its MAC; forwards every callback.
class TimedListener final : public phy::RadioListener {
 public:
  TimedListener(phy::RadioListener& mac, LayerTrace& trace)
      : mac_(mac), trace_(trace) {}
  void on_rx_start(const phy::Frame& frame, sim::Time end_time) override {
    UpcallSpan span(trace_);
    mac_.on_rx_start(frame, end_time);
  }
  void on_header_decoded(const phy::Frame& frame, bool ok) override {
    UpcallSpan span(trace_);
    mac_.on_header_decoded(frame, ok);
  }
  void on_rx_end(const phy::Frame& frame, const phy::RxResult& r) override {
    UpcallSpan span(trace_);
    mac_.on_rx_end(frame, r);
  }
  void on_salvage(const phy::Frame& frame, const phy::RxResult& r) override {
    UpcallSpan span(trace_);
    mac_.on_salvage(frame, r);
  }
  void on_cca(bool busy) override {
    UpcallSpan span(trace_);
    mac_.on_cca(busy);
  }
  void on_tx_end(const phy::Frame& frame) override {
    UpcallSpan span(trace_);
    mac_.on_tx_end(frame);
  }

 private:
  phy::RadioListener& mac_;
  LayerTrace& trace_;
};

// The counters whose movement classifies an event.
struct Marks {
  std::uint64_t dynamics = 0;
  std::uint64_t transmits = 0;
  std::uint64_t rx_ends = 0;
  std::uint64_t decisions = 0;
};

Marks read_marks(const metrics::Registry& r) {
  using metrics::Counter;
  return {r.value(Counter::kDynMoves) +
              r.value(Counter::kDynIncrementalInvalidations) +
              r.value(Counter::kDynFullRefreshes) +
              r.value(Counter::kDynChannelEpochs),
          r.value(Counter::kPhyTransmits),
          r.value(Counter::kPhyRxOk) + r.value(Counter::kPhyRxCorrupt),
          r.value(Counter::kMacSendDecisions)};
}

Bucket classify(const Marks& before, const Marks& after, std::uint8_t cls) {
  if (after.dynamics != before.dynamics) return kDynamics;
  if (after.transmits != before.transmits) return kPhyTransmit;
  if (after.rx_ends != before.rx_ends) return kPhyRxEnd;
  if (cls == sim::delivery_rank(0, 0).cls) return kPhyDeliver;
  if (after.decisions != before.decisions) return kCoreDecide;
  return kSimOther;
}

struct TracedRun {
  Outcome outcome;
  metrics::MetricsSnapshot snapshot;
};

// One serial run with metrics on, its event loop driven here.
TracedRun run_traced(const Setup& s, LayerTrace& t, bool sample_spans) {
  testbed::RunConfig config = serial(s.config);
  config.with_metrics(metrics::MetricsConfig{});
  testbed::World world(*s.tb, config);
  add_flows(world, s.flows);

  std::set<phy::NodeId> nodes;
  for (const testbed::Flow& f : s.flows) nodes.insert({f.src, f.dst});
  std::vector<std::unique_ptr<TimedListener>> listeners;
  for (const phy::NodeId id : nodes) {
    auto* mac = dynamic_cast<phy::RadioListener*>(&world.mac(id));
    if (mac == nullptr) continue;
    listeners.push_back(std::make_unique<TimedListener>(*mac, t));
    world.radio(id).set_listener(listeners.back().get());
  }
  t.upcall_name = testbed::scheme_is_cmap(config.scheme) ? "core.upcall"
                                                         : "mac80211.upcall";
  t.sampling = sample_spans;
  t.spans.reserve(kSpanSample);

  sim::EventQueue& q = world.simulator().queue();
  const metrics::Registry& reg = *world.metrics();
  const sim::Time until = config.duration;
  std::uint64_t events = 0;
  Marks before = read_marks(reg);
  const std::uint64_t allocs0 = t_allocs;
  t_count_allocs = true;
  // Two clock reads per event: each gap starts where the previous event
  // ended, so only the tracer's bookkeeping falls outside the buckets and
  // the queue probes (a clock read costs ~34 ns on the reference box).
  const Clock::time_point loop_start = Clock::now();
  t.origin = loop_start;
  Clock::time_point prev = loop_start;
  for (std::uint64_t i = 0;; ++i) {
    const bool split = i % kProbeSampleEvery == 0;
    const Clock::time_point mid = split ? Clock::now() : prev;
    const sim::EventKey key = q.next_key();
    const Clock::time_point t1 = Clock::now();
    t.gap_ns += ns_between(prev, t1);
    ++t.gaps;
    if (split) {
      t.probe_sampled_ns += ns_between(mid, t1);
      ++t.probe_samples;
    }
    if (key.at > until) {
      q.advance_to(until);
      break;
    }
    t.event_id = t.next_id++;
    t.event_upcall_ns = 0;
    q.run_one();
    const Clock::time_point t2 = Clock::now();
    const Marks after = read_marks(reg);
    const Bucket b = classify(before, after, key.rank.cls);
    before = after;
    const std::int64_t ns = ns_between(t1, t2);
    t.events[b].add(ns);
    t.self_ns[b] += ns - t.event_upcall_ns;
    t.sample(t.event_id, 0, kBucketName[b], t1, t2);
    ++events;
    prev = t2;
  }
  t.loop_ns += ns_between(loop_start, Clock::now());
  t_count_allocs = false;
  const std::uint64_t allocs = t_allocs - allocs0;
  // The listeners die before the world does: hand the radios back first.
  for (const phy::NodeId id : nodes) {
    if (auto* mac = dynamic_cast<phy::RadioListener*>(&world.mac(id))) {
      world.radio(id).set_listener(mac);
    }
  }

  if (t.reps == 0) {
    t.rep_events = events;
    t.rep_allocs = allocs;
  } else if (events != t.rep_events || allocs != t.rep_allocs) {
    t.counts_agree = false;
  }
  ++t.reps;
  t.sampling = false;
  return {collect(world, s.flows), world.metrics_snapshot()};
}

// ---- Output ----
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  const char* workload;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(std::string name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      problems.push_back(name + " is not finite");
      value = 0.0;
    }
    metrics.push_back({std::move(name), value, unit});
  }
  // One run checked against the reference digest.
  void check(const Outcome& o, std::uint64_t reference, const char* what) {
    ++attempted;
    if (o.finite && o.digest == reference) return;
    ++failed;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s run: digest %016llx vs reference %016llx%s", what,
                  static_cast<unsigned long long>(o.digest),
                  static_cast<unsigned long long>(reference),
                  o.finite ? "" : ", non-finite or empty results");
    problems.emplace_back(buf);
  }
};

void write_layers(const std::string& out_dir, const Report& r,
                  const LayerTrace& t, const metrics::MetricsSnapshot& snap) {
  const std::string path = out_dir + "/" + r.workload + ".layers.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\":\"%s\",\"reps\":%d,\"loop_ns\":%lld,",
               r.workload, t.reps, static_cast<long long>(t.loop_ns));
  std::fprintf(f,
               "\"gap_ns\":%lld,\"queue_probe_ns_est\":%.0f,\"buckets\":{",
               static_cast<long long>(t.gap_ns), t.probe_total_ns());
  for (int b = 0; b < kBucketCount; ++b) {
    const Hist& h = t.events[b];
    std::fprintf(f,
                 "%s\"%s\":{\"count\":%llu,\"total_ns\":%lld,\"self_ns\":%lld,"
                 "\"p50_ns\":%.1f,\"p99_ns\":%.1f}",
                 b == 0 ? "" : ",", kBucketName[b],
                 static_cast<unsigned long long>(h.count),
                 static_cast<long long>(h.total_ns),
                 static_cast<long long>(t.self_ns[b]), h.percentile(0.5),
                 h.percentile(0.99));
  }
  std::fprintf(f,
               "},\"%s\":{\"count\":%llu,\"total_ns\":%lld,\"p50_ns\":%.1f,"
               "\"p99_ns\":%.1f},",
               t.upcall_name, static_cast<unsigned long long>(t.upcalls.count),
               static_cast<long long>(t.upcalls.total_ns),
               t.upcalls.percentile(0.5), t.upcalls.percentile(0.99));
  std::fprintf(f, "\"counters\":%s,\"metrics\":{",
               snap.counters_json().c_str());
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.17g", i == 0 ? "" : ",",
                 r.metrics[i].name.c_str(), r.metrics[i].value);
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

// Chrome trace-event format: loads in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Upcalls nest under their event on the one track.
void write_chrome_trace(const std::string& out_dir, const char* workload,
                        const LayerTrace& t) {
  const std::string path = out_dir + "/" + workload + ".trace.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const SpanRecord& s = t.spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void print_report(const Report& r, const std::vector<Metric>& info) {
  for (const Metric& m : r.metrics) {
    std::printf("%s %s %.17g %s\n", r.workload, m.name.c_str(), m.value,
                m.unit);
  }
  for (const Metric& m : info) {
    std::printf("%s %s %.17g %s\n", r.workload, m.name.c_str(), m.value,
                m.unit);
  }
  for (const std::string& p : r.problems) {
    std::printf("%s FAILED %s\n", r.workload, p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string out_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: e2e_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--quick] [--out <dir>]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& w = *args.workload;
  Report report{w.name, {}, 0, 0, {}};

  // Set-up, repeated with the testbed rebuilt each time; the last one is
  // kept for the runs.
  std::vector<double> setup_s, setup_raw_s, build_s, draw_s;
  Setup s;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    s = set_up(w, args.seed, args.quick);
    setup_s.push_back(s.total_s / s.slowdown);
    setup_raw_s.push_back(s.total_s);
    build_s.push_back(s.build_s);
    draw_s.push_back(s.draw_s);
  }
  const double sim_s = sim::to_seconds(s.config.duration);
  const bool pdes = w.partitions > 1;
  const Clock::time_point measure_start = Clock::now();
  auto elapsed = [&] { return seconds_between(measure_start, Clock::now()); };

  auto replicate = [&](std::size_t k) {
    testbed::RunConfig c = s.config;
    c.seed = s.seeds[k];
    return c;
  };
  // One reference run per replicate: every later run's digest must equal
  // its replicate's. References are serial, so on metro10k they are the
  // oracle for the partitioned runs. They are not timed for sim_rate: they
  // also warm caches and the allocator.
  std::vector<Outcome> refs;
  Fnv1a digest;
  double aggregate_mbps = 0.0;
  for (std::size_t k = 0; k < s.seeds.size(); ++k) {
    refs.push_back(run_untraced(s, serial(replicate(k))));
    ++report.attempted;
    if (!refs.back().finite) {
      ++report.failed;
      report.problems.emplace_back(
          "reference run: non-finite or empty results");
    }
    digest.add(refs.back().digest);
    aggregate_mbps +=
        refs.back().aggregate_mbps / static_cast<double>(s.seeds.size());
  }
  const Outcome& reference = refs.front();
  std::printf("%s report_digest %016llx hex\n", w.name,
              static_cast<unsigned long long>(digest.h));
  std::vector<Metric> info = {
      {"aggregate_mbps", aggregate_mbps, "Mbit/s"},
      {"flows", static_cast<double>(s.flows.size()), "count"}};

  if (!args.trace) {
    std::vector<double> rates, raw_rates;
    double rss = 0.0;
    while (rates.size() < 3 || elapsed() < args.seconds) {
      double norm_wall = 0.0, wall = 0.0;
      for (std::size_t k = 0; k < s.seeds.size(); ++k) {
        const Outcome o = run_untraced(s, replicate(k));
        report.check(o, refs[k].digest, pdes ? "partitioned" : "repeat");
        norm_wall += o.norm_wall_s;
        wall += o.wall_s;
      }
      const double run_sim_s = sim_s * static_cast<double>(s.seeds.size());
      rates.push_back(run_sim_s / norm_wall);
      raw_rates.push_back(run_sim_s / wall);
      // The peak only grows: read it at the same point in every invocation.
      if (rates.size() == 1) rss = peak_rss_mb();
    }
    if (rss <= 0.0) report.problems.emplace_back("cannot read VmHWM");
    report.add("sim_rate", median(rates), "sim-s/s");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", rss, "MB");
    info.push_back({"timed_runs", static_cast<double>(rates.size()), "count"});
    info.push_back({"sim_rate_raw", median(raw_rates), "sim-s/s"});
    info.push_back(
        {"setup_reps", static_cast<double>(setup_s.size()), "count"});
    info.push_back({"setup_raw_s", median(setup_raw_s), "s"});
    print_report(report, info);
    return 0;
  }

  // ---- Traced mode: the per-layer metrics, all from replicate 0 ----
  std::vector<double> serial_wall = {reference.wall_s};
  while (serial_wall.size() < 3) {
    const Outcome o = run_untraced(s, serial(s.config));
    report.check(o, reference.digest, "serial");
    serial_wall.push_back(o.wall_s);
  }
  double speedup = 0.0;
  metrics::MetricsSnapshot pdes_snap;
  double pdes_cpu_util = 0.0;
  if (pdes) {
    std::vector<double> part_wall;
    for (int rep = 0; rep < 2; ++rep) {
      const Outcome o = run_untraced(s, s.config);
      report.check(o, reference.digest, "partitioned");
      part_wall.push_back(o.wall_s);
    }
    speedup = median(serial_wall) / median(part_wall);
    // One more partitioned run with metrics on, for the engine's profile.
    testbed::RunConfig profiled = s.config;
    profiled.with_metrics(metrics::MetricsConfig{});
    testbed::World world(*s.tb, profiled);
    add_flows(world, s.flows);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    world.run(profiled.duration);
    const double wall = seconds_between(t0, Clock::now());
    pdes_cpu_util = (process_cpu_s() - cpu0) / (wall * kPdesThreads);
    report.check(collect(world, s.flows), reference.digest, "profiled");
    pdes_snap = world.metrics_snapshot();
  }
  const double untraced_wall = median(serial_wall);
  // Peak RSS before the traced runs, which only add to it.
  info.push_back({"peak_rss_before_trace_mb", peak_rss_mb(), "MB"});

  LayerTrace t;
  TracedRun first;
  while (t.reps == 0 || elapsed() < args.seconds) {
    TracedRun tr = run_traced(s, t, t.reps == 0);
    report.check(tr.outcome, reference.digest, "traced");
    if (t.reps == 1) first = std::move(tr);
  }
  if (!t.counts_agree) {
    report.problems.emplace_back("traced runs disagree on event or "
                                 "allocation counts");
  }

  using metrics::Counter;
  const metrics::MetricsSnapshot& c = first.snapshot;
  auto cnt = [&](Counter k) { return static_cast<double>(c.counter(k)); };
  const double loop = static_cast<double>(t.loop_ns);
  const double events = static_cast<double>(t.rep_events);
  auto share = [&](Bucket b) {
    return ratio(static_cast<double>(t.self_ns[b]), loop);
  };
  const double upcall_share =
      ratio(static_cast<double>(t.upcalls.total_ns), loop);
  const bool cmap_scheme = testbed::scheme_is_cmap(s.config.scheme);
  const Hist all_events = t.all_events();

  report.add("sim.events", events, "count");
  report.add("sim.events_per_wall_s", ratio(events, untraced_wall), "1/s");
  report.add("sim.event_ns_p50", all_events.percentile(0.5), "ns");
  report.add("sim.event_ns_p99", all_events.percentile(0.99), "ns");
  report.add("sim.allocs_per_event",
             ratio(static_cast<double>(t.rep_allocs), events), "allocs/event");
  report.add("sim.queue_depth_hw",
             static_cast<double>(c.queue_depth_high_water), "count");
  report.add("sim.queue_probe_ns", t.probe_mean_ns(), "ns");
  report.add("sim.other_share", share(kSimOther), "ratio");

  const double tx = cnt(Counter::kPhyTransmits);
  const double delivered = cnt(Counter::kPhyDeliveries);
  const double hits = cnt(Counter::kPhyGainCacheHits);
  report.add("phy.transmits", tx, "count");
  report.add("phy.deliveries_per_tx", ratio(delivered, tx), "ratio");
  report.add("phy.floor_drop_ratio",
             ratio(cnt(Counter::kPhyFloorDrops),
                   delivered + cnt(Counter::kPhyFloorDrops)),
             "ratio");
  report.add("phy.cull_ratio",
             ratio(cnt(Counter::kPhyCulledReceivers),
                   cnt(Counter::kPhyCulledReceivers) + hits),
             "ratio");
  report.add("phy.gain_cache_hit_ratio",
             ratio(hits, hits + cnt(Counter::kPhyGainCacheMisses)), "ratio");
  report.add("phy.rx_ok_ratio",
             ratio(cnt(Counter::kPhyRxOk),
                   cnt(Counter::kPhyRxOk) + cnt(Counter::kPhyRxCorrupt)),
             "ratio");
  const std::pair<Bucket, const char*> phy_buckets[] = {
      {kPhyTransmit, "transmit"}, {kPhyDeliver, "deliver"},
      {kPhyRxEnd, "rx_end"}};
  for (const auto& [b, name] : phy_buckets) {
    report.add(std::string("phy.") + name + "_share", share(b), "ratio");
  }
  for (const auto& [b, name] : phy_buckets) {
    report.add(std::string("phy.") + name + "_event_ns_p50",
               t.events[b].percentile(0.5), "ns");
    report.add(std::string("phy.") + name + "_event_ns_p99",
               t.events[b].percentile(0.99), "ns");
  }

  const double decisions = cnt(Counter::kMacSendDecisions);
  report.add("core.send_decisions", decisions, "count");
  report.add("core.defer_ratio",
             ratio(cnt(Counter::kMacDeferDstBusy) +
                       cnt(Counter::kMacDeferConflictMap),
                   decisions),
             "ratio");
  report.add("core.probes_per_decision",
             ratio(cnt(Counter::kMacDeferProbes), decisions), "ratio");
  report.add("core.defer_inserts", cnt(Counter::kMacDeferInserts), "count");
  report.add("core.ttl_expiries", cnt(Counter::kMacDeferTtlExpiries), "count");
  report.add("core.decide_share", share(kCoreDecide), "ratio");
  // A scheme's upcalls land in its own MAC layer; the other layer reads 0.
  const Hist none;
  const Hist& core_up = cmap_scheme ? t.upcalls : none;
  const Hist& dcf_up = cmap_scheme ? none : t.upcalls;
  report.add("core.upcall_share", cmap_scheme ? upcall_share : 0.0, "ratio");
  report.add("core.upcall_ns_p50", core_up.percentile(0.5), "ns");
  report.add("core.upcall_ns_p99", core_up.percentile(0.99), "ns");
  report.add("mac80211.upcall_share", cmap_scheme ? 0.0 : upcall_share,
             "ratio");
  report.add("mac80211.upcall_ns_p50", dcf_up.percentile(0.5), "ns");
  report.add("mac80211.upcall_ns_p99", dcf_up.percentile(0.99), "ns");

  report.add("dynamics.moves", cnt(Counter::kDynMoves), "count");
  report.add("dynamics.full_refreshes", cnt(Counter::kDynFullRefreshes),
             "count");
  report.add("dynamics.share", share(kDynamics), "ratio");
  report.add("dynamics.event_ns_p50", t.events[kDynamics].percentile(0.5),
             "ns");

  // PDES (metro10k only; zero elsewhere).
  double busy = 0.0, busy_max = 0.0, wait = 0.0, mailbox = 0.0;
  for (const metrics::PartitionExec& pe : pdes_snap.parts) {
    busy += pe.busy_ms;
    busy_max = std::max(busy_max, pe.busy_ms);
    wait += pe.barrier_wait_ms;
    mailbox += static_cast<double>(pe.mailbox_posted);
  }
  const double part_wall =
      pdes_snap.parallel_wall_ms * static_cast<double>(pdes_snap.parts.size());
  std::uint64_t windows = 0, seen = 0;
  for (std::uint64_t n : pdes_snap.window_log2) windows += n;
  double window_p50 = 0.0;
  for (std::size_t i = 0; i < pdes_snap.window_log2.size() && windows > 0;
       ++i) {
    seen += pdes_snap.window_log2[i];
    if (2 * seen >= windows) {
      window_p50 = static_cast<double>(std::uint64_t{1} << i);
      break;
    }
  }
  report.add("pdes.speedup", speedup, "x");
  report.add("pdes.rounds", static_cast<double>(pdes_snap.rounds), "count");
  report.add("pdes.global_barriers",
             static_cast<double>(pdes_snap.global_barriers), "count");
  report.add("pdes.mailbox_msgs", mailbox, "count");
  report.add("pdes.busy_share", ratio(busy, part_wall), "ratio");
  report.add("pdes.barrier_wait_share", ratio(wait, part_wall), "ratio");
  report.add("pdes.imbalance",
             ratio(busy_max, busy / std::max<double>(
                                        1.0, static_cast<double>(
                                                 pdes_snap.parts.size()))),
             "ratio");
  report.add("pdes.window_ns_p50", window_p50, "ns");
  report.add("pdes.cpu_util", pdes_cpu_util, "ratio");

  report.add("testbed.build_s", median(build_s), "s");
  report.add("testbed.draw_s", median(draw_s), "s");
  report.add("testbed.stored_links", static_cast<double>(s.tb->stored_links()),
             "count");
  report.add("trace.overhead",
             ratio(loop / 1e9 / static_cast<double>(t.reps), untraced_wall),
             "x");
  report.add("trace.coverage",
             ratio(static_cast<double>(all_events.total_ns) +
                       t.probe_total_ns(),
                   loop),
             "ratio");

  info.push_back({"traced_runs", static_cast<double>(t.reps), "count"});
  if (!args.out_dir.empty()) {
    write_layers(args.out_dir, report, t, c);
    write_chrome_trace(args.out_dir, w.name, t);
  }
  print_report(report, info);
  return 0;
}

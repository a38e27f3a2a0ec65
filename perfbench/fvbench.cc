// FragVisor-Sim benchmark program.
//
// Runs one workload through the simulator's public entry points, checks that
// its outputs are correct, and prints every metric by name with its unit:
//
//   storm           RunStorm: 64 nodes x 8 streams x 4000 accesses, 2 workers
//   cluster-borrow  RunMarketplace: 64 nodes x 4 vCPUs, 240 VMs, flash trace,
//                   fragbff, 1 worker
//   dsm-paper       DsmEngine::Access on a serial EventLoop: 8 nodes,
//                   128 Ki pages, 4 Ki-page shared hot set, 30% writes
//
//   fvbench --workload W --seed N --seconds S --trace 0|1 [--min-reps N]
//           [--out-dir DIR]
//
// Repetitions run until S seconds have passed, and at least N of them
// (default 1, and 2 with --trace 1).
//
// --trace 0 prints the end-to-end metrics (host time, tracing off). --trace 1
// alternates untraced and traced repetitions, runs the layer probes, and
// prints the per-layer metrics; the traced repetitions record spans around
// every call the benchmark makes into a layer, which are written to DIR as
// Chrome trace-event JSON. Both modes write a result record with a machine
// fingerprint to DIR. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/arrival.h"
#include "src/cluster/marketplace.h"
#include "src/host/cost_model.h"
#include "src/mem/dsm.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/event_loop.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/rng.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

#ifndef FVBENCH_BUILD_TYPE
#define FVBENCH_BUILD_TYPE "unknown"
#endif

// The seed the workload sizes were chosen with, and the seed kept back for
// checking later claims (README.md, "Seeds").
constexpr uint64_t kSizingSeed = 1;
constexpr uint64_t kHeldOutSeed = 7;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

double ElapsedS(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-9; }

// Quantile `q` in [0, 1] of the samples, interpolated linearly.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Exact nearest-rank percentile of integer samples.
double PercentileOf(std::vector<int64_t> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent) around each call into a layer. The layer
// is the name's prefix before the first '.'. Kept in memory, written at exit.

class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  // Drops every span recorded after the first `n`; none of them may be open.
  void Truncate(size_t n) {
    FV_CHECK(open_.empty() || static_cast<size_t>(open_.back()) < n);
    spans_.resize(std::min(n, spans_.size()));
  }

  int32_t Begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }

  // Closes span `id`; returns its duration in ns (0 when not recording).
  int64_t End(int32_t id) {
    if (id < 0) {
      return 0;
    }
    FV_CHECK(!open_.empty() && open_.back() == id);
    open_.pop_back();
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }

  // Self time of one span: its duration minus what its children cover.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      if (spans_[i].parent >= 0) {
        self[static_cast<size_t>(spans_[i].parent)] -= spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    return self;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds). At most
  // `per_name_cap` spans of any one name are written; SelfTimes() still
  // covers all of them.
  bool WriteChromeTrace(const std::string& path, size_t per_name_cap) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::map<std::string, size_t> written;
    std::fprintf(f, "{\"traceEvents\": [\n");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (++written[s.name] > per_name_cap) {
        continue;
      }
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                   first ? "" : ",\n", s.name, layer.c_str(), static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log), id_(log->Begin(name)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Metric table. BENCHMARK.json lists the same names and units; test_bench.py
// checks that they agree.

enum class Kind { kEndToEnd, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

constexpr MetricDef kMetrics[] = {
    {"ops_per_s", "1/s", Kind::kEndToEnd},
    {"setup_s", "s", Kind::kEndToEnd},
    {"peak_rss_mb", "MB", Kind::kEndToEnd},

    {"sim.events", "count", Kind::kLayer},
    {"sim.barriers", "count", Kind::kLayer},
    {"sim.events_per_barrier", "count", Kind::kLayer},
    {"sim.horizon_ns_mean", "ns", Kind::kLayer},
    {"sim.mailbox_events", "count", Kind::kLayer},
    {"sim.partition_imbalance", "ratio", Kind::kLayer},
    {"sim.coord_s", "s", Kind::kLayer},
    {"sim.barrier_ns", "ns", Kind::kLayer},
    {"sim.queue_ns", "ns", Kind::kLayer},
    {"sim.self_s", "s", Kind::kLayer},

    {"net.messages", "count", Kind::kLayer},
    {"net.bytes", "bytes", Kind::kLayer},
    {"net.rpc_calls", "count", Kind::kLayer},
    {"net.msgs_per_op", "ratio", Kind::kLayer},
    {"net.msg_ns", "ns", Kind::kLayer},
    {"net.self_s", "s", Kind::kLayer},

    {"mem.hit_ratio", "ratio", Kind::kLayer},
    {"mem.read_faults", "count", Kind::kLayer},
    {"mem.write_faults", "count", Kind::kLayer},
    {"mem.invalidations", "count", Kind::kLayer},
    {"mem.page_transfers", "count", Kind::kLayer},
    {"mem.protocol_messages", "count", Kind::kLayer},
    {"mem.protocol_bytes", "bytes", Kind::kLayer},
    {"mem.access_hit_ns", "ns", Kind::kLayer},
    {"mem.access_miss_ns", "ns", Kind::kLayer},
    {"mem.fault_sim_us_p50", "us", Kind::kLayer},
    {"mem.fault_sim_us_p99", "us", Kind::kLayer},
    {"mem.run_self_s", "s", Kind::kLayer},
    {"mem.self_s", "s", Kind::kLayer},

    {"storm.remote_reads", "count", Kind::kLayer},
    {"storm.remote_writes", "count", Kind::kLayer},
    {"storm.cache_hit_ratio", "ratio", Kind::kLayer},
    {"storm.invalidations", "count", Kind::kLayer},
    {"storm.sim_ms", "ms", Kind::kLayer},
    {"storm.self_s", "s", Kind::kLayer},

    {"cluster.placed_single", "count", Kind::kLayer},
    {"cluster.placed_aggregate", "count", Kind::kLayer},
    {"cluster.delayed", "count", Kind::kLayer},
    {"cluster.reclaims", "count", Kind::kLayer},
    {"cluster.remote_frac", "ratio", Kind::kLayer},
    {"cluster.latency_sim_us_p50", "us", Kind::kLayer},
    {"cluster.latency_sim_us_p99", "us", Kind::kLayer},
    {"cluster.consolidation_mean", "ratio", Kind::kLayer},
    {"cluster.stranded_mean", "slots", Kind::kLayer},
    {"cluster.sim_ms", "ms", Kind::kLayer},
    {"cluster.trace_s", "s", Kind::kLayer},
    {"cluster.self_s", "s", Kind::kLayer},

    {"host.leases_granted", "count", Kind::kLayer},
    {"host.leases_revoked", "count", Kind::kLayer},

    {"bench.self_s", "s", Kind::kLayer},
    {"bench.failed_frac", "ratio", Kind::kLayer},
    {"trace.overhead", "ratio", Kind::kLayer},
};

// Layers that get a `<layer>.self_s` metric from the spans.
constexpr const char* kSpanLayers[] = {"bench", "sim", "net", "mem", "storm", "cluster"};

class Metrics {
 public:
  Metrics() {
    for (const MetricDef& d : kMetrics) {
      values_[d.name] = 0.0;  // a layer the workload does not exercise reads 0
    }
  }
  void Set(const std::string& name, double v) {
    auto it = values_.find(name);
    FV_CHECK(it != values_.end());
    it->second = v;
  }
  double Get(const std::string& name) const { return values_.at(name); }

 private:
  std::map<std::string, double> values_;
};

// Simulated outputs: deterministic for a seed, so a speed-only change must
// leave them identical. Reported (and compared with the pins by run.py), but
// not timed.
using SimOutputs = std::vector<std::pair<std::string, uint64_t>>;

// ---------------------------------------------------------------------------
// Layer probes: small programs through the public sim/net calls, timed.

// Host ns per barrier of ParallelEventLoop::Run with `partitions` partitions
// and near-empty windows: four tokens hop around the ring of partitions, one
// hop per window.
double ProbeBarrierNs(int partitions, int threads, uint64_t windows) {
  ParallelEventLoop::Options po;
  po.num_partitions = partitions;
  po.num_threads = threads;
  po.lookahead = LinkParams::InfiniBand56G().latency;
  ParallelEventLoop pl(po);
  struct Ring {
    ParallelEventLoop* pl;
    int partitions;
    TimeNs lookahead;
    void Hop(int p, uint64_t left) {
      if (left == 0) {
        return;
      }
      const int next = (p + 1) % partitions;
      pl->ScheduleCross(p, next, pl->partition(p)->now() + lookahead, 0,
                        [this, next, left] { Hop(next, left - 1); });
    }
  } ring{&pl, partitions, po.lookahead};
  constexpr int kTokens = 4;
  for (int t = 0; t < kTokens; ++t) {
    const int p = t * partitions / kTokens;
    pl.partition(p)->ScheduleAt(po.lookahead, [&ring, p, windows] { ring.Hop(p, windows); });
  }
  const int64_t t0 = NowNs();
  pl.Run();
  const double ns = static_cast<double>(NowNs() - t0);
  return ns / static_cast<double>(std::max<uint64_t>(1, pl.stats().barriers));
}

// Host ns per EventLoop::ScheduleAt plus its dispatch, with `depth` events
// pending: each of `depth` timers re-arms itself at a pseudo-random delay.
double ProbeQueueNs(int depth, uint64_t ops) {
  EventLoop loop;
  struct Timers {
    EventLoop* loop;
    uint64_t left;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    void Fire() {
      if (left == 0) {
        return;
      }
      --left;
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      loop->ScheduleAt(loop->now() + 100 + static_cast<TimeNs>(x % 4000), [this] { Fire(); });
    }
  } timers{&loop, ops};
  for (int i = 0; i < std::max(1, depth); ++i) {
    timers.Fire();
  }
  const int64_t t0 = NowNs();
  const size_t dispatched = loop.Run();
  return static_cast<double>(NowNs() - t0) / static_cast<double>(std::max<size_t>(1, dispatched));
}

// Host ns per RpcLayer request/reply leg on a parallel Fabric with `nodes`
// nodes and `threads` workers: every node keeps two request chains going to
// rotating peers; the bound request handler replies with a page.
double ProbeMsgNs(int nodes, int threads, uint64_t legs) {
  const LinkParams link = LinkParams::InfiniBand56G();
  ParallelEventLoop::Options po;
  po.num_partitions = nodes;
  po.num_threads = threads;
  po.lookahead = Fabric::MinEffectiveLatency(TopologyConfig(), link, nodes);
  ParallelEventLoop pl(po);
  Fabric fabric(&pl, nodes, link);
  RpcLayer rpc(nullptr, &fabric);
  struct Chains {
    RpcLayer* rpc;
    int nodes;
    std::vector<uint64_t> left;    // requests node n may still issue
    std::vector<uint64_t> issued;  // requests node n issued
    void Next(NodeId n) {
      auto i = static_cast<size_t>(n);
      if (left[i] == 0) {
        return;
      }
      --left[i];
      const NodeId dst = static_cast<NodeId>((n + 1 + issued[i]++ % (nodes - 1)) % nodes);
      rpc->Notify(n, dst, MsgKind::kDsmReadReq, 64);
    }
  } chains{&rpc, nodes, {}, {}};
  const uint64_t per_node = std::max<uint64_t>(1, legs / 2 / static_cast<uint64_t>(nodes));
  chains.left.assign(static_cast<size_t>(nodes), per_node);
  chains.issued.assign(static_cast<size_t>(nodes), 0);
  for (NodeId n = 0; n < nodes; ++n) {
    rpc.Bind(n, MsgKind::kDsmReadReq, [&rpc, &chains](const RpcLayer::Inbound& in) {
      const NodeId req = in.src;
      rpc.Call(in.dst, req, MsgKind::kDsmPageData, 4096 + 64, [&chains, req] { chains.Next(req); });
    });
    for (int c = 0; c < 2; ++c) {
      pl.partition(n)->ScheduleAt(1 + c, [&chains, n] { chains.Next(n); });
    }
  }
  const int64_t t0 = NowNs();
  pl.Run();
  const double ns = static_cast<double>(NowNs() - t0);
  return ns / static_cast<double>(std::max<uint64_t>(1, fabric.MergedStats().total_messages.value()));
}

// ---------------------------------------------------------------------------
// Workloads.

struct RepResult {
  std::vector<double> setup_s;  // several set-up samples per repetition
  double run_s = 0;             // host time of the single run call
  uint64_t ops = 0;             // operations the run call completed
  uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Runs once before the timed repetitions (untimed): builds the references
  // the correctness gate compares each repetition against.
  virtual void Prepare(SpanLog* log) = 0;
  // One repetition: set-up samples, then one timed run call, then its checks.
  virtual RepResult Rep(SpanLog* log) = 0;
  // Trace mode only: per-layer counts of the last repetition plus probes.
  // `run_s` is the median untraced run time.
  virtual void LayerMetrics(SpanLog* log, double run_s, Metrics* m) = 0;
  virtual SimOutputs Outputs() const = 0;
  virtual uint64_t digest() const = 0;

  // Which sample of a run the host times report: a quantile of the
  // repetitions' rates for ops_per_s, and of the set-up samples' durations
  // for setup_s. The host is shared with other tenants, and under them each
  // vCPU runs serial code in two states: a slow floor that nearly every run
  // reaches and that agrees with itself within a few percent across runs,
  // and faster spells of varying speed and length (dsm-paper: ~300 k
  // accesses/s against 400-650 k/s). A median lands wherever a run's mix of
  // the two falls, so the serial workloads read the floor: the slowest
  // repetition, and the 90th percentile of the many short set-up samples
  // (their maximum would be a one-off, such as a cold first sample).
  struct HostSample {
    double rate_q;
    double setup_q;
  };
  virtual HostSample host_sample() const { return {0.0, 0.9}; }

  const std::vector<std::string>& errors() const { return errors_; }

 protected:
  void Expect(bool ok, const std::string& what) {
    if (!ok && std::find(errors_.begin(), errors_.end(), what) == errors_.end()) {
      errors_.push_back(what);
    }
  }

 private:
  std::vector<std::string> errors_;
};

constexpr int kSetupSamples = 5;

void NetMetrics(const FabricStats& fabric, const RpcStats& rpc, uint64_t ops, Metrics* m) {
  m->Set("net.messages", static_cast<double>(fabric.total_messages.value()));
  m->Set("net.bytes", static_cast<double>(fabric.total_bytes.value()));
  m->Set("net.rpc_calls",
         static_cast<double>(rpc.calls.value() + rpc.notifies.value() + rpc.datagrams.value()));
  m->Set("net.msgs_per_op", static_cast<double>(fabric.total_messages.value()) /
                                static_cast<double>(std::max<uint64_t>(1, ops)));
}

void CoreMetrics(const ParallelEventLoop::RunStats& core, Metrics* m) {
  m->Set("sim.barriers", static_cast<double>(core.barriers));
  m->Set("sim.events_per_barrier", static_cast<double>(core.events_dispatched) /
                                       static_cast<double>(std::max<uint64_t>(1, core.barriers)));
  m->Set("sim.horizon_ns_mean", core.horizon_width_ns.mean());
  m->Set("sim.mailbox_events", static_cast<double>(core.mailbox_events));
  uint64_t max_events = 0;
  uint64_t sum_events = 0;
  for (uint64_t e : core.events_per_partition) {
    max_events = std::max(max_events, e);
    sum_events += e;
  }
  const double mean =
      static_cast<double>(sum_events) / static_cast<double>(std::max<size_t>(1, core.events_per_partition.size()));
  m->Set("sim.partition_imbalance", mean > 0 ? static_cast<double>(max_events) / mean : 0.0);
}

// The ROADMAP storm: dense all-to-all DSM messaging on 2 workers.
class StormWorkload : public Workload {
 public:
  explicit StormWorkload(uint64_t seed) {
    opts_.num_nodes = 64;
    opts_.streams_per_node = 8;
    opts_.accesses_per_stream = 4000;
    opts_.write_frac = 0.3;
    opts_.seed = seed;
    tiny_ = opts_;
    tiny_.accesses_per_stream = 1;
  }

  void Prepare(SpanLog* log) override {
    ScopedSpan span(log, "storm.RunStorm.1worker");
    const StormResult r = RunStorm(opts_, 1);
    reference_ = StormReport(r);
    Check(r);
  }

  RepResult Rep(SpanLog* log) override {
    RepResult rep;
    for (int i = 0; i < kSetupSamples; ++i) {
      const int64_t t0 = NowNs();
      ScopedSpan span(log, "storm.setup");
      RunStorm(tiny_, kThreads);
      rep.setup_s.push_back(ElapsedS(t0));
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "storm.RunStorm");
      last_ = RunStorm(opts_, kThreads);
    }
    rep.run_s = ElapsedS(t0);
    rep.ops = Issued();
    rep.failed = last_.totals.failures;
    Expect(StormReport(last_) == reference_, "storm: report differs between 1 and 2 workers");
    Check(last_);
    return rep;
  }

  void LayerMetrics(SpanLog* log, double run_s, Metrics* m) override {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "storm.RunStorm.serial");
      RunStorm(opts_, 0);
    }
    m->Set("sim.coord_s", run_s - ElapsedS(t0));
    m->Set("sim.events", static_cast<double>(last_.events_dispatched));
    CoreMetrics(last_.core, m);
    NetMetrics(last_.fabric, last_.rpc, Issued(), m);
    {
      ScopedSpan span(log, "sim.probe_barrier");
      m->Set("sim.barrier_ns", ProbeBarrierNs(opts_.num_nodes, kThreads, 10000));
    }
    {
      // RunStorm offers no way to sample its queues, so the depth is assumed:
      // one pending access per stream. In-flight deliveries and timers come
      // on top, so this is a lower bound on the real mean depth.
      ScopedSpan span(log, "sim.probe_queue");
      m->Set("sim.queue_ns", ProbeQueueNs(opts_.streams_per_node, 1000000));
    }
    {
      ScopedSpan span(log, "net.probe_msg");
      m->Set("net.msg_ns", ProbeMsgNs(opts_.num_nodes, kThreads, 400000));
    }
    const StormCounters& c = last_.totals;
    m->Set("storm.remote_reads", static_cast<double>(c.remote_reads));
    m->Set("storm.remote_writes", static_cast<double>(c.remote_writes));
    m->Set("storm.cache_hit_ratio", static_cast<double>(c.cache_hits) /
                                        static_cast<double>(std::max<uint64_t>(1, c.cache_hits + c.remote_reads)));
    m->Set("storm.invalidations", static_cast<double>(c.invalidations));
    m->Set("storm.sim_ms", ToMillis(last_.finish_time));
  }

  SimOutputs Outputs() const override {
    const StormCounters& c = last_.totals;
    return {{"finish_time_ns", static_cast<uint64_t>(last_.finish_time)},
            {"events", last_.events_dispatched},
            {"local_accesses", c.local_accesses},
            {"cache_hits", c.cache_hits},
            {"remote_reads", c.remote_reads},
            {"remote_writes", c.remote_writes},
            {"invalidations", c.invalidations},
            {"barriers", last_.core.barriers},
            {"messages", last_.fabric.total_messages.value()}};
  }
  uint64_t digest() const override { return last_.state_digest; }
  // The storm's two workers wait for each other at every barrier, so either
  // one being slowed slows the run: its rates spread out instead of sitting
  // on a floor, and their median is the steadiest across runs.
  HostSample host_sample() const override { return {0.5, 0.5}; }

 private:
  static constexpr int kThreads = 2;

  uint64_t Issued() const {
    return static_cast<uint64_t>(opts_.num_nodes) * static_cast<uint64_t>(opts_.streams_per_node) *
           static_cast<uint64_t>(opts_.accesses_per_stream) * static_cast<uint64_t>(opts_.epochs);
  }

  void Check(const StormResult& r) {
    Expect(r.totals.failures == 0, "storm: reliable-send failures");
    uint64_t sum = 0;
    for (const StormCounters& c : r.per_node) {
      const uint64_t node = c.local_accesses + c.cache_hits + c.remote_reads + c.remote_writes;
      Expect(node == Issued() / static_cast<uint64_t>(opts_.num_nodes),
             "storm: a node's counters do not add up to its accesses");
      sum += node;
    }
    Expect(sum == Issued(), "storm: per-node counters do not add up to the accesses issued");
  }

  StormOptions opts_;
  StormOptions tiny_;
  std::string reference_;
  StormResult last_;
};

// The marketplace configuration that actually borrows: aggregate placements,
// delayed VMs, reclaims and remote page fetches, on 1 worker.
class ClusterWorkload : public Workload {
 public:
  explicit ClusterWorkload(uint64_t seed) {
    opts_.num_nodes = 64;
    opts_.vcpus_per_node = 4;
    opts_.trace.vms = 240;
    opts_.trace.kind = ArrivalKind::kFlash;
    opts_.trace.seed = seed;
    opts_.policy = "fragbff";
    // Smallest legal input: one VM pushing one request per vCPU, so the
    // set-up time is building the engine, not serving a seed-sized VM.
    tiny_ = opts_;
    tiny_.trace.vms = 1;
    tiny_.trace.requests_per_vcpu = 1;
  }

  void Prepare(SpanLog* log) override {
    ScopedSpan span(log, "cluster.RunMarketplace.2workers");
    const MarketplaceResult r = RunMarketplace(opts_, 2);
    reference_ = MarketplaceReport(r);
    for (const VmArrival& a : GenerateArrivalTrace(opts_.trace)) {
      requests_ += a.requests;
    }
    Check(r);
  }

  RepResult Rep(SpanLog* log) override {
    RepResult rep;
    for (int i = 0; i < kSetupSamples; ++i) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(log, "cluster.GenerateArrivalTrace");
        const std::vector<VmArrival> trace = GenerateArrivalTrace(opts_.trace);
        Expect(trace.size() == static_cast<size_t>(opts_.trace.vms), "cluster: trace size");
      }
      trace_s_.push_back(ElapsedS(t0));
      {
        ScopedSpan span(log, "cluster.setup");
        RunMarketplace(tiny_, kThreads);
      }
      rep.setup_s.push_back(ElapsedS(t0));
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "cluster.RunMarketplace");
      last_ = RunMarketplace(opts_, kThreads);
    }
    rep.run_s = ElapsedS(t0);
    rep.ops = last_.totals.local_requests + last_.totals.remote_requests;
    rep.failed = last_.totals.request_failures + last_.vms_failed;
    Expect(MarketplaceReport(last_) == reference_, "cluster: report differs between 1 and 2 workers");
    Check(last_);
    return rep;
  }

  void LayerMetrics(SpanLog* log, double /*run_s*/, Metrics* m) override {
    const MarketplaceResult& r = last_;
    m->Set("sim.events", static_cast<double>(r.events_dispatched));
    CoreMetrics(r.core, m);
    NetMetrics(r.fabric, r.rpc, requests_, m);
    {
      ScopedSpan span(log, "sim.probe_barrier");
      m->Set("sim.barrier_ns", ProbeBarrierNs(opts_.num_nodes, kThreads, 10000));
    }
    {
      // Assumed depth, as for the storm: one pending request stream per VM
      // homed on a node; in-flight deliveries and timers come on top.
      ScopedSpan span(log, "sim.probe_queue");
      m->Set("sim.queue_ns", ProbeQueueNs((opts_.trace.vms + opts_.num_nodes - 1) / opts_.num_nodes,
                                          1000000));
    }
    {
      ScopedSpan span(log, "net.probe_msg");
      m->Set("net.msg_ns", ProbeMsgNs(opts_.num_nodes, kThreads, 400000));
    }
    m->Set("cluster.placed_single", static_cast<double>(r.placed_single));
    m->Set("cluster.placed_aggregate", static_cast<double>(r.placed_aggregate));
    m->Set("cluster.delayed", static_cast<double>(r.delayed));
    m->Set("cluster.reclaims", static_cast<double>(r.reclaims));
    m->Set("cluster.remote_frac",
           static_cast<double>(r.totals.remote_requests) /
               static_cast<double>(std::max<uint64_t>(1, r.totals.local_requests + r.totals.remote_requests)));
    m->Set("cluster.latency_sim_us_p50", r.latency.Percentile(50) / 1e3);
    m->Set("cluster.latency_sim_us_p99", r.latency.Percentile(99) / 1e3);
    m->Set("cluster.consolidation_mean", r.consolidation.MeanValue());
    m->Set("cluster.stranded_mean", r.stranded.MeanValue());
    m->Set("cluster.sim_ms", ToMillis(r.finish_time));
    m->Set("cluster.trace_s", Quantile(trace_s_, host_sample().setup_q));
    m->Set("host.leases_granted", static_cast<double>(r.lease.granted.value()));
    m->Set("host.leases_revoked", static_cast<double>(r.lease.revoked.value()));
  }

  SimOutputs Outputs() const override {
    const MarketplaceResult& r = last_;
    return {{"finish_time_ns", static_cast<uint64_t>(r.finish_time)},
            {"events", r.events_dispatched},
            {"placed_single", r.placed_single},
            {"placed_aggregate", r.placed_aggregate},
            {"delayed", r.delayed},
            {"reclaims", r.reclaims},
            {"local_requests", r.totals.local_requests},
            {"remote_requests", r.totals.remote_requests},
            {"leases_granted", r.lease.granted.value()},
            {"barriers", r.core.barriers},
            {"messages", r.fabric.total_messages.value()}};
  }
  uint64_t digest() const override { return last_.state_digest; }

 private:
  static constexpr int kThreads = 1;

  void Check(const MarketplaceResult& r) {
    Expect(r.vms_completed == static_cast<uint64_t>(opts_.trace.vms), "cluster: not every VM completed");
    Expect(r.vms_failed == 0, "cluster: failed VMs");
    Expect(r.totals.request_failures == 0, "cluster: request failures");
    Expect(r.ledger_residue_slots == 0, "cluster: ledger residue after the final drain");
    Expect(r.placed_aggregate >= 1, "cluster: no aggregate placement (the workload stopped borrowing)");
    Expect(r.totals.remote_requests >= 1, "cluster: no remote request (the workload stopped borrowing)");
    Expect(r.totals.local_requests + r.totals.remote_requests == requests_,
           "cluster: served requests do not add up to the trace's request budget");
  }

  MarketplaceOptions opts_;
  MarketplaceOptions tiny_;
  std::string reference_;
  uint64_t requests_ = 0;
  std::vector<double> trace_s_;
  MarketplaceResult last_;
};

// The paper's DSM protocol on the serial engine, driven access by access.
class DsmPaperWorkload : public Workload {
 public:
  explicit DsmPaperWorkload(uint64_t seed) : seed_(seed) {}

  void Prepare(SpanLog* /*log*/) override {}

  RepResult Rep(SpanLog* log) override {
    RepResult rep;
    last_.reset();  // one rig alive at a time, so peak RSS counts one
    std::unique_ptr<Rig> rig;
    for (int i = 0; i < kSetupSamples; ++i) {
      rig.reset();
      const int64_t t0 = NowNs();
      rig = Build(log);
      rep.setup_s.push_back(ElapsedS(t0));
    }
    rig_ = rig.get();
    log_ = log;
    // hit_ns_, miss_ns_ and the depth samples are taken only while tracing,
    // so they accumulate over every traced repetition and are never reset:
    // the last repetition may be an untraced one.
    hits_ = faults_ = callbacks_ = 0;
    latencies_.clear();
    for (int n = 0; n < kNodes; ++n) {
      Stream& st = streams_[static_cast<size_t>(n)];
      st.node = n;
      st.rng = Rng(seed_ * 1000 + static_cast<uint64_t>(n));
      st.remaining = kAccessesPerNode;
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan kick(log, "bench.kickoff");
      for (Stream& st : streams_) {
        Pump(&st);
      }
    }
    {
      ScopedSpan span(log, "sim.EventLoop.Run");
      events_ = rig->loop->Run();
    }
    rep.run_s = ElapsedS(t0);
    rep.ops = hits_ + faults_;
    rep.failed = faults_ - callbacks_;
    rig_ = nullptr;
    last_ = std::move(rig);
    Check();
    return rep;
  }

  void LayerMetrics(SpanLog* log, double /*run_s*/, Metrics* m) override {
    const DsmStats& s = last_->dsm->stats();
    m->Set("sim.events", static_cast<double>(events_));
    NetMetrics(last_->fabric->stats(), last_->rpc->stats(), hits_ + faults_, m);
    FV_CHECK(depth_samples_ > 0 && hit_ns_.count > 0 && miss_ns_.count > 0);
    const double depth = static_cast<double>(depth_sum_) / static_cast<double>(depth_samples_);
    {
      ScopedSpan span(log, "sim.probe_queue");
      m->Set("sim.queue_ns", ProbeQueueNs(static_cast<int>(depth + 0.5), 1000000));
    }
    {
      ScopedSpan span(log, "net.probe_msg");
      m->Set("net.msg_ns", ProbeMsgNs(kNodes, 1, 200000));
    }
    m->Set("mem.hit_ratio", static_cast<double>(hits_) / static_cast<double>(hits_ + faults_));
    m->Set("mem.read_faults", static_cast<double>(s.read_faults.value()));
    m->Set("mem.write_faults", static_cast<double>(s.write_faults.value()));
    m->Set("mem.invalidations", static_cast<double>(s.invalidations.value()));
    m->Set("mem.page_transfers", static_cast<double>(s.page_transfers.value()));
    m->Set("mem.protocol_messages", static_cast<double>(s.protocol_messages.value()));
    m->Set("mem.protocol_bytes", static_cast<double>(s.protocol_bytes.value()));
    m->Set("mem.access_hit_ns", hit_ns_.sum / hit_ns_.count);
    m->Set("mem.access_miss_ns", miss_ns_.sum / miss_ns_.count);
    m->Set("mem.fault_sim_us_p50", PercentileOf(latencies_, 50) / 1e3);
    m->Set("mem.fault_sim_us_p99", PercentileOf(latencies_, 99) / 1e3);
    // Self time of the traced Run span: host time in the engine and the DSM
    // protocol handlers, excluding the benchmark's own callbacks.
    const std::vector<int64_t> self = log->SelfTimes();
    for (size_t i = 0; i < log->spans().size(); ++i) {
      if (std::strcmp(log->spans()[i].name, "sim.EventLoop.Run") == 0) {
        m->Set("mem.run_self_s", static_cast<double>(self[i]) * 1e-9);
        break;
      }
    }
  }

  SimOutputs Outputs() const override {
    const DsmStats& s = last_->dsm->stats();
    return {{"finish_time_ns", static_cast<uint64_t>(last_->loop->now())},
            {"events", events_},
            {"hits", hits_},
            {"faults", faults_},
            {"read_faults", s.read_faults.value()},
            {"write_faults", s.write_faults.value()},
            {"invalidations", s.invalidations.value()},
            {"page_transfers", s.page_transfers.value()},
            {"protocol_messages", s.protocol_messages.value()},
            {"protocol_bytes", s.protocol_bytes.value()}};
  }

  uint64_t digest() const override {
    uint64_t h = kFnvBasis;
    for (const auto& [key, value] : Outputs()) {
      h = Fnv(h, value);
    }
    for (int64_t l : latencies_) {
      h = Fnv(h, static_cast<uint64_t>(l));
    }
    return h;
  }

 private:
  static constexpr int kNodes = 8;
  static constexpr PageNum kPages = PageNum{1} << 17;  // 128 Ki pages
  static constexpr PageNum kHotPages = PageNum{1} << 12;
  static constexpr uint64_t kAccessesPerNode = 50000;

  struct Rig {
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<Fabric> fabric;
    CostModel costs = CostModel::Default();
    std::unique_ptr<RpcLayer> rpc;
    std::unique_ptr<DsmEngine> dsm;
  };

  struct Stream {
    int node = 0;
    Rng rng{1};
    uint64_t remaining = 0;
    TimeNs issued = 0;  // simulated time of the access in flight
  };

  struct Mean {
    double sum = 0;
    double count = 0;
  };

  static std::unique_ptr<Rig> Build(SpanLog* log) {
    auto rig = std::make_unique<Rig>();
    {
      ScopedSpan span(log, "sim.EventLoop");
      rig->loop = std::make_unique<EventLoop>();
    }
    {
      ScopedSpan span(log, "net.Fabric");
      rig->fabric = std::make_unique<Fabric>(rig->loop.get(), kNodes, LinkParams::InfiniBand56G());
    }
    {
      ScopedSpan span(log, "net.RpcLayer");
      rig->rpc = std::make_unique<RpcLayer>(rig->loop.get(), rig->fabric.get());
    }
    DsmEngine::Options opts;
    opts.home = 0;
    opts.num_nodes = kNodes;
    {
      ScopedSpan span(log, "mem.DsmEngine");
      rig->dsm = std::make_unique<DsmEngine>(rig->loop.get(), rig->rpc.get(), &rig->costs, opts);
    }
    ScopedSpan span(log, "mem.SeedRange");
    for (int n = 0; n < kNodes; ++n) {
      rig->dsm->SeedRange(static_cast<PageNum>(n) * (kPages / kNodes), kPages / kNodes, n);
    }
    return rig;
  }

  void Pump(Stream* st) {
    while (st->remaining > 0) {
      --st->remaining;
      const bool hot = st->rng.Chance(0.5);
      const PageNum page = static_cast<PageNum>(
          hot ? st->rng.UniformInt(0, kHotPages - 1) : st->rng.UniformInt(0, kPages - 1));
      const bool is_write = st->rng.Chance(0.3);
      st->issued = rig_->loop->now();
      const int32_t id = log_->Begin("mem.Access");
      const bool hit = rig_->dsm->Access(st->node, page, is_write, [this, st] { Done(st); });
      const int64_t ns = log_->End(id);
      if (!hit) {
        ++faults_;
        miss_ns_.sum += static_cast<double>(ns);
        miss_ns_.count += id >= 0 ? 1 : 0;
        return;  // resumes from Done()
      }
      ++hits_;
      hit_ns_.sum += static_cast<double>(ns);
      hit_ns_.count += id >= 0 ? 1 : 0;
    }
  }

  void Done(Stream* st) {
    ++callbacks_;
    latencies_.push_back(rig_->loop->now() - st->issued);
    if (log_->enabled()) {
      depth_sum_ += rig_->loop->pending_count();
      ++depth_samples_;
    }
    ScopedSpan span(log_, "bench.pump");
    Pump(st);
  }

  void Check() {
    Expect(callbacks_ == faults_, "dsm-paper: a faulting access's callback never ran");
    Expect(hits_ + faults_ == kAccessesPerNode * kNodes, "dsm-paper: accesses lost");
    // Aborts the process on a violated directory/residency invariant.
    Expect(last_->dsm->CheckInvariants() > 0, "dsm-paper: invariant check saw no pages");
    if (first_digest_ == 0) {
      first_digest_ = digest();
    }
    Expect(digest() == first_digest_, "dsm-paper: simulated outputs differ between repetitions");
  }

  uint64_t seed_;
  Rig* rig_ = nullptr;
  SpanLog* log_ = nullptr;
  std::unique_ptr<Rig> last_;
  std::array<Stream, kNodes> streams_;
  uint64_t hits_ = 0;
  uint64_t faults_ = 0;
  uint64_t callbacks_ = 0;
  uint64_t events_ = 0;
  uint64_t depth_sum_ = 0;
  uint64_t depth_samples_ = 0;
  uint64_t first_digest_ = 0;
  Mean hit_ns_;
  Mean miss_ns_;
  std::vector<int64_t> latencies_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "storm") {
    return std::make_unique<StormWorkload>(seed);
  }
  if (name == "cluster-borrow") {
    return std::make_unique<ClusterWorkload>(seed);
  }
  if (name == "dsm-paper") {
    return std::make_unique<DsmPaperWorkload>(seed);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Peak resident set of this process image, from VmHWM. (getrusage's
// ru_maxrss survives execve on Linux, so it can report the parent's peak.)
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fvbench --workload storm|cluster-borrow|dsm-paper --seed N --seconds S "
               "--trace 0|1 [--min-reps N] [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = kSizingSeed;
  double seconds = -1;  // required; BENCHMARK.json's run_seconds is run.py's default
  int trace = 0;
  int min_reps = 0;
  std::string out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--min-reps") {
      min_reps = std::atoi(val);
    } else if (key == "--out-dir") {
      out_dir = val;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> w = MakeWorkload(workload, seed);
  if (w == nullptr || argc % 2 != 1 || (trace != 0 && trace != 1) || seconds < 0) {
    return Usage();
  }
  // A traced run needs an untraced and a traced repetition at least.
  min_reps = std::max(min_reps, trace == 1 ? 2 : 1);

  SpanLog log;
  log.set_enabled(trace == 1);
  const int32_t root = log.Begin("bench.workload");
  w->Prepare(&log);

  // Timed repetitions until `seconds` have elapsed. In trace mode every
  // second repetition is traced; the spans of the first traced repetition
  // are kept, later ones are recorded (so they pay the same overhead) and
  // dropped.
  std::vector<double> setup_s;
  std::vector<double> run_s_untraced;
  std::vector<double> rate_untraced;
  std::vector<double> rate_traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t keep_mark = SIZE_MAX;
  const int64_t start = NowNs();
  for (int rep = 0; rep < min_reps || ElapsedS(start) < seconds; ++rep) {
    const bool traced = trace == 1 && rep % 2 == 1;
    log.set_enabled(traced);
    const RepResult r = w->Rep(&log);
    if (traced) {
      if (keep_mark == SIZE_MAX) {
        keep_mark = log.size();
      } else {
        log.Truncate(keep_mark);
      }
    }
    setup_s.insert(setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    (traced ? rate_traced : rate_untraced).push_back(static_cast<double>(r.ops) / r.run_s);
    if (!traced) {
      run_s_untraced.push_back(r.run_s);
    }
    attempted += r.ops;
    failed += r.failed;
  }

  Metrics m;
  const double rate_q = w->host_sample().rate_q;
  m.Set("ops_per_s", Quantile(rate_untraced, rate_q));
  m.Set("setup_s", Quantile(setup_s, w->host_sample().setup_q));
  m.Set("peak_rss_mb", PeakRssMb());
  if (trace == 1) {
    log.set_enabled(true);
    w->LayerMetrics(&log, Quantile(run_s_untraced, 1.0 - rate_q), &m);
    m.Set("trace.overhead", Quantile(rate_untraced, rate_q) / Quantile(rate_traced, rate_q));
    m.Set("bench.failed_frac", static_cast<double>(failed) / static_cast<double>(attempted));
    log.End(root);
    const std::vector<int64_t> self = log.SelfTimes();
    std::map<std::string, int64_t> by_layer;
    for (size_t i = 0; i < self.size(); ++i) {
      const std::string name = log.spans()[i].name;
      by_layer[name.substr(0, name.find('.'))] += self[i];
    }
    for (const char* layer : kSpanLayers) {
      m.Set(std::string(layer) + ".self_s", static_cast<double>(by_layer[layer]) * 1e-9);
    }
  }

  const std::vector<std::string>& errors = w->errors();
  const bool correct = errors.empty() && failed == 0;
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }

  const std::string stem = out_dir + "/" + workload + "-seed" + std::to_string(seed) + "-trace" +
                           std::to_string(trace);
  if (trace == 1 && !log.WriteChromeTrace(stem + ".trace.json", 20000)) {
    std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
    return 1;
  }

  // Human-readable report, then the result record, then the summary line.
  const Kind shown = trace == 1 ? Kind::kLayer : Kind::kEndToEnd;
  std::printf("workload %s seed %llu trace %d: %zu untraced + %zu traced repetitions\n",
              workload.c_str(), static_cast<unsigned long long>(seed), trace, rate_untraced.size(),
              rate_traced.size());
  const SimOutputs outputs = w->Outputs();
  for (const auto& [key, value] : outputs) {
    std::printf("  sim %-28s %llu\n", key.c_str(), static_cast<unsigned long long>(value));
  }
  std::printf("  sim %-28s %s\n", "state_digest", Hex(w->digest()).c_str());
  std::string metrics_json;
  for (const MetricDef& d : kMetrics) {
    if (d.kind != shown) {
      continue;
    }
    std::printf("  metric %-28s %.6g %s\n", d.name, m.Get(d.name), d.unit);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", d.name, m.Get(d.name), d.unit);
    metrics_json += buf;
  }

  std::string outputs_json;
  for (const auto& [key, value] : outputs) {
    outputs_json += (outputs_json.empty() ? "\"" : ", \"") + key + "\": " + std::to_string(value);
  }
  std::string errors_json;
  for (const std::string& e : errors) {
    errors_json += (errors_json.empty() ? "\"" : ", \"") + e + "\"";
  }
  std::string rates_json;
  for (double r : rate_untraced) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.0f", rates_json.empty() ? "" : ", ", r);
    rates_json += buf;
  }
  FILE* f = std::fopen((stem + ".record.json").c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s.record.json\n", stem.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n"
               " \"fingerprint\": {\"hardware_threads\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\", \"seed\": %llu, \"state_digest\": \"%s\"},\n"
               " \"sizing_seed\": %llu, \"held_out_seed\": %llu,\n"
               " \"repetitions\": {\"untraced\": %zu, \"traced\": %zu},\n"
               " \"untraced_ops_per_s\": [%s],\n"
               " \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"errors\": [%s],\n"
               " \"sim_outputs\": {%s},\n"
               " \"metrics\": {%s}}\n",
               workload.c_str(), static_cast<unsigned long long>(seed), trace,
               std::thread::hardware_concurrency(), Compiler().c_str(), FVBENCH_BUILD_TYPE,
               static_cast<unsigned long long>(seed), Hex(w->digest()).c_str(),
               static_cast<unsigned long long>(kSizingSeed),
               static_cast<unsigned long long>(kHeldOutSeed), rate_untraced.size(),
               rate_traced.size(), rates_json.c_str(), correct ? "true" : "false",
               static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
               errors_json.c_str(), outputs_json.c_str(), metrics_json.c_str());
  std::fclose(f);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) { return fragvisor::Main(argc, argv); }

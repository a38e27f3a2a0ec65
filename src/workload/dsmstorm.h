// DSM coherence storm: the parallel-core stress workload.
//
// A cluster of N nodes, each the home for a slab of pages, runs several
// independent access streams per node. Every access either touches local
// memory or picks a remote home and issues a DSM protocol exchange over the
// RpcLayer: read miss -> kDsmReadReq / kDsmPageData, write -> kDsmWriteReq /
// kDsmAck plus a kDsmInvalidate to the page's last cached reader. All node
// state (stream RNGs, the direct-mapped page cache, the home-side
// version/last-reader arrays, the counters) is owned by exactly one node, so
// the storm runs unmodified on the serial EventLoop and on the partitioned
// ParallelEventLoop.
//
// Determinism contract:
//  - For a fixed engine, the result (and StormReport()) is a pure function of
//    StormOptions — in particular it is byte-identical across ParallelEventLoop
//    worker counts, including with faults enabled.
//  - Across engines (serial vs. parallel), byte-identity additionally requires
//    a commutative configuration (write_frac == 0 and cache_slots == 0, no
//    faults): the two engines commit equal-time cross-node arrivals in
//    different relative orders, which is observable only through
//    order-dependent state (cache contents, last-reader tracking, fault RNG
//    draw interleaving).
#ifndef FRAGVISOR_SRC_WORKLOAD_DSMSTORM_H_
#define FRAGVISOR_SRC_WORKLOAD_DSMSTORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/fault_plan.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/time.h"

namespace fragvisor {

struct StormOptions {
  int num_nodes = 64;
  int streams_per_node = 4;
  int accesses_per_stream = 200;
  int pages_per_node = 64;
  // Direct-mapped remote-page cache per node; 0 disables caching entirely
  // (every remote read goes home — the commutative configuration).
  int cache_slots = 16;
  double remote_frac = 0.7;  // fraction of accesses that leave the node
  double write_frac = 0.3;   // fraction of remote accesses that are writes
  TimeNs think_ns = Micros(2);
  uint64_t seed = 1;
  // Each epoch runs accesses_per_stream accesses on every stream and drains
  // the event queue completely before the next epoch's streams kick off —
  // the quiesce points where whole-sim snapshots are possible (no in-flight
  // closures). epochs == 1 is exactly the historical single-shot storm.
  int epochs = 1;

  LinkParams link = LinkParams::InfiniBand56G();
  // Deterministic per-directed-link latency spread on top of link.latency,
  // so partitions see distinct arrival times instead of a metronome.
  TimeNs latency_jitter_ns = Nanos(700);
  // Fabric topology. The default (full mesh) is byte-identical to every run
  // before the topology existed; a fat-tree adds per-hop serialization and
  // shared, oversubscribed core links on cross-pod paths.
  TopologyConfig topology;

  // Fault injection: a schedule with any() attaches a FaultPlan with per-node
  // RNG streams, seeded from `seed`, on both engines.
  FaultSchedule faults;

  // The first rule these options break, naming its key, or nullptr. The
  // storm aborts on it; fvsim and scenario_runner refuse it first.
  const char* Invalid() const;

  // Every field's option key (src/sim/options_text.h). A new knob is its
  // field plus one line here.
  template <typename V>
  void Visit(V&& v) {
    v("nodes", num_nodes);
    v("streams", streams_per_node);
    v("accesses", accesses_per_stream);
    v("pages", pages_per_node);
    v("cache_slots", cache_slots);
    v("remote_frac", remote_frac);
    v("write_frac", write_frac);
    v("think_ns", think_ns);
    v("seed", seed);
    v("epochs", epochs);
    link.Visit(v);
    v("jitter_ns", latency_jitter_ns);
    topology.Visit(v);
    faults.Visit(v);
  }
};

struct StormCounters {
  uint64_t local_accesses = 0;
  uint64_t cache_hits = 0;
  uint64_t remote_reads = 0;   // read misses sent home
  uint64_t remote_writes = 0;  // writes sent home
  uint64_t served_reads = 0;   // home-side request handling
  uint64_t served_writes = 0;
  uint64_t invalidations = 0;  // kDsmInvalidate evictions applied here
  uint64_t evictions = 0;      // direct-mapped conflict evictions here
  uint64_t failures = 0;       // reliable-channel give-ups observed here

  // The field list (src/sim/state_io.h), in snapshot wire and digest order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.local_accesses...);
    v(s.cache_hits...);
    v(s.remote_reads...);
    v(s.remote_writes...);
    v(s.served_reads...);
    v(s.served_writes...);
    v(s.invalidations...);
    v(s.evictions...);
    v(s.failures...);
  }
};

struct StormResult {
  std::vector<StormCounters> per_node;
  StormCounters totals;
  TimeNs finish_time = 0;  // simulated time of the last event
  // Worker-count-invariant but NOT engine-invariant (the parallel engine runs
  // extra bookkeeping events), so it is excluded from StormReport().
  uint64_t events_dispatched = 0;
  uint64_t state_digest = 0;     // FNV-1a over all node-owned end state

  FabricStats fabric;     // merged across shards
  RetryStats retry;       // merged; zero unless a fault plan was attached
  RpcStats rpc;           // merged
  FaultPlanStats faults;  // merged; zero without a fault plan
  bool used_fault_plan = false;

  // Engine info. `core` is populated only when parallel == true; it is
  // identical across worker counts but is intentionally NOT part of
  // StormReport() so the commutative serial-vs-parallel comparison stays
  // engine-agnostic.
  bool parallel = false;
  int threads = 0;
  ParallelEventLoop::RunStats core;
};

// Runs the storm to completion. threads == 0 selects the serial EventLoop
// engine; threads >= 1 selects the ParallelEventLoop with one partition per
// node and `threads` workers.
StormResult RunStorm(const StormOptions& opts, int threads);

// Snapshot / record-replay hooks for one storm run (DESIGN.md §10).
struct StormRunConfig {
  // Save: once `snapshot_epoch` epochs have completed (1-based, at most
  // opts.epochs), the whole-sim state is serialized here; the run then
  // continues to completion as usual.
  std::string* snapshot_out = nullptr;
  int snapshot_epoch = 0;

  // Load: resume from this snapshot instead of starting at epoch 0. The
  // engine kind (serial vs parallel) and every StormOptions field must match
  // the saving run; the parallel worker count may differ. A resumed run's
  // StormReport() is byte-identical to the uninterrupted run's.
  const std::string* snapshot_in = nullptr;

  // Load-failure sink: the reader's error lands here and RunStormEx returns
  // a default StormResult. Without a sink, a load failure aborts.
  std::string* error = nullptr;

  // Optional fabric capture log (record/replay); must be constructed with
  // opts.num_nodes. Records every committed wire delivery of the run.
  CaptureLog* capture = nullptr;
};

// RunStorm plus snapshot save/load and fabric capture.
StormResult RunStormEx(const StormOptions& opts, int threads, const StormRunConfig& cfg);

// Canonical, line-oriented dump of everything the determinism contract
// covers. Byte-compare two of these to compare two runs.
std::string StormReport(const StormResult& r);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_WORKLOAD_DSMSTORM_H_

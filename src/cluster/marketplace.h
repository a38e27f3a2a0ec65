// The cluster marketplace: many aggregate VMs competing for borrowable
// resources on a shared multi-tenant cluster (DESIGN.md §11).
//
// A cluster::Orchestrator resident on node 0 admits VMs from an open-loop
// arrival trace against the per-node TenantLedgers, placing through the
// scheduler's BFF and FragBFF kernels (src/sched/fragbff.h) under the
// `policy` option: fragbff tries a whole node first and then the smallest
// fragments, harvest takes the largest fragments first. A VM placed on one
// node runs whole; otherwise it runs as an aggregate VM over fragments,
// every non-home slice covered by a host::LeaseManager lease. When a VM
// cannot be admitted, the orchestrator arbitrates cross-VM reclamation: it
// revokes a running tenant's lease whose share can be called home (the
// tenant's home node has since freed up), consolidating tenant A onto fewer
// nodes to admit tenant B.
//
// Admitted VMs push FaaS-style open-loop request streams from their home
// node's partition: local requests burn handler compute, remote requests
// fetch a page from a lender slice over the fabric (kDsmReadReq /
// kDsmPageData). Everything is partition-local by construction — the
// orchestrator state (ledgers, lease book, waiting queue) lives on node 0's
// partition, each VM's runtime state on its home partition, each node's
// counters and latency shard on its own partition — so the marketplace runs
// on the conservative parallel core byte-identically at any worker count.
//
// Epochs: the trace is split into `epochs` admission waves; every wave runs
// until the cluster fully drains (all admitted VMs complete), which is the
// whole-sim snapshot quiesce point, exactly as in workload/dsmstorm.

#ifndef FRAGVISOR_SRC_CLUSTER_MARKETPLACE_H_
#define FRAGVISOR_SRC_CLUSTER_MARKETPLACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/arrival.h"
#include "src/host/lease_manager.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/fault_plan.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {

// Orchestrator-failover tuning. Only consulted when faults are configured.
struct MarketplaceFailoverOptions {
  TimeNs heartbeat_ns = Micros(150);      // orchestrator -> successor beats
  double fail_phi = 8.0;                  // phi threshold for takeover
  int phi_window = 16;                    // beat inter-arrival samples kept
  TimeNs probe_interval_ns = Millis(2);   // orchestrator liveness probe cadence
  TimeNs done_retry_ns = Micros(500);     // home-side done-notify redirect gap
  int done_retry_limit = 200;             // redirect attempts before giving up
};

struct MarketplaceOptions {
  int num_nodes = 64;
  int vcpus_per_node = 8;           // committed vCPU slots per node
  uint64_t mem_per_node = 32ull << 30;
  ArrivalTraceOptions trace;        // vms, kind, span, sizes, request budgets
  std::string policy = "fragbff";   // or "harvest"
  int epochs = 1;                   // admission waves, each fully drained
  bool reclamation = true;          // lease-revocation consolidation on/off

  // Per-request costs (FaaS-handler scale).
  TimeNs think_ns = Micros(1);         // open-loop gap between requests
  TimeNs service_ns = Micros(4);       // local handler compute
  TimeNs page_service_ns = Micros(2);  // lender-side page fetch cost

  // Messaging-layer features (exercises the parallel QoS / coalesced paths).
  bool qos = false;
  bool coalesced_acks = false;

  LinkParams link = LinkParams::InfiniBand56G();
  TimeNs latency_jitter_ns = Nanos(700);
  // Fabric topology; the default full mesh is byte-identical to every run
  // before the topology existed.
  TopologyConfig topology;

  // Transport fast paths (both inert by default, byte-identical off).
  // rdma_read: remote page fetches are one-sided reads — no lender-side CPU
  // service (page_service_ns is skipped), the borrower pays the link's
  // one_sided_setup cost up front instead.
  bool rdma_read = false;
  // compress: page replies ship at a modeled compressed size (deterministic
  // per-page compressibility class keyed on compress_seed).
  bool compress = false;
  uint64_t compress_seed = 0xC0DEC0DEull;

  // Fault injection + failover (DESIGN.md §12). Empty by default: a run with
  // `!faults.any()` attaches no fault plan, arms no failover machinery, and
  // is byte-identical to a pre-fault-tolerance run.
  uint64_t fault_seed = 1;  // fault-plan RNG seed (per-node streams)
  FaultSchedule faults;
  MarketplaceFailoverOptions failover;

  // The first rule these options break, naming its key, or nullptr. The
  // marketplace aborts on it; fvsim and scenario_runner refuse it first.
  const char* Invalid() const;

  // Every field's option key (src/sim/options_text.h).
  template <typename V>
  void Visit(V&& v) {
    v("nodes", num_nodes);
    v("vcpus_per_node", vcpus_per_node);
    v("mem_gb", mem_per_node, int64_t{1} << 30);
    v("trace", trace.kind, kArrivalKindNames);
    v("vms", trace.vms);
    v("span_ms", trace.span, kMillisecond);
    v("seed", trace.seed);
    v("max_vcpus", trace.max_vcpus);
    v("mem_per_vcpu_mb", trace.mem_per_vcpu, int64_t{1} << 20);
    v("requests", trace.requests_per_vcpu);
    v("remote_frac", trace.remote_frac);
    v("policy", policy);
    v("epochs", epochs);
    v("reclaim", reclamation);
    v("think_ns", think_ns);
    v("service_ns", service_ns);
    v("page_service_ns", page_service_ns);
    v("rpc_qos", qos);
    v("rpc_coalesce", coalesced_acks);
    link.Visit(v);
    v("jitter_ns", latency_jitter_ns);
    topology.Visit(v);
    v("dsm_rdma_read", rdma_read);
    v("dsm_compress", compress);
    v("compress_seed", compress_seed);
    v("fault_seed", fault_seed);
    faults.Visit(v);
    v("failover_heartbeat_ns", failover.heartbeat_ns);
    v("failover_fail_phi", failover.fail_phi);
    v("failover_phi_window", failover.phi_window);
    v("failover_probe_interval_ns", failover.probe_interval_ns);
    v("failover_done_retry_ns", failover.done_retry_ns);
    v("failover_done_retry_limit", failover.done_retry_limit);
  }
};

// Per-node marketplace counters, each owned by that node's partition.
struct MarketplaceNodeCounters {
  uint64_t local_requests = 0;   // requests of VMs homed here served locally
  uint64_t remote_requests = 0;  // requests homed here that went to a lender
  uint64_t served_pages = 0;     // lender-side page fetches served here
  uint64_t reclaim_moves = 0;    // lender shares this home absorbed back
  uint64_t request_failures = 0; // reliable-channel give-ups observed here

  // The field list (src/sim/state_io.h), in snapshot wire and digest order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.local_requests...);
    v(s.remote_requests...);
    v(s.served_pages...);
    v(s.reclaim_moves...);
    v(s.request_failures...);
  }
};

// Why a VM ended kFailed (0 = it did not fail).
enum class VmFailReason : uint8_t {
  kNone = 0,
  kHomeCrash = 1,   // the node homing the VM died; co-tenants untouched
  kOrchLost = 2,    // orphaned by an orchestrator death nothing recovered
  kCapacity = 3,    // surviving cluster can never fit it
};

const char* VmFailReasonName(VmFailReason reason);

struct VmOutcome {
  uint64_t vm = 0;
  int vcpus = 0;
  TimeNs submitted = 0;
  TimeNs started = 0;   // admission instant
  TimeNs finished = 0;
  NodeId home = kInvalidNode;
  int span_nodes = 0;   // nodes in the placement (1 = whole, >1 = aggregate)
  bool completed = false;
  bool failed = false;  // exactly-once: completed xor failed once terminal
  VmFailReason fail_reason = VmFailReason::kNone;
};

struct MarketplaceResult {
  std::vector<MarketplaceNodeCounters> per_node;
  MarketplaceNodeCounters totals;
  Histogram latency;  // request latency, merged across per-home-node shards

  // Orchestrator outcomes.
  uint64_t placed_single = 0;
  uint64_t placed_aggregate = 0;
  uint64_t delayed = 0;        // VMs that had to wait for capacity
  uint64_t reclaims = 0;       // lease revocations that consolidated a tenant
  uint64_t vms_completed = 0;
  LeaseStats lease;            // the lease book's own counters (copied)
  std::vector<VmOutcome> vms;

  // Cluster efficiency over time, sampled at every admission/completion/
  // reclaim: consolidation = committed slots / (nodes-in-use * slots-per-
  // node); stranded = free slots on partially-occupied nodes.
  TimeSeries consolidation;
  TimeSeries stranded;

  TimeNs finish_time = 0;
  uint64_t events_dispatched = 0;  // worker-count-invariant, engine-specific
  uint64_t state_digest = 0;

  FabricStats fabric;  // merged across shards
  RpcStats rpc;        // merged

  // Fault-tolerance outcomes (all zero when no fault plan was attached).
  bool used_fault_plan = false;
  uint64_t vms_failed = 0;
  uint64_t failovers = 0;             // orchestrator takeovers (mid- or inter-wave)
  uint64_t nodes_died = 0;            // death declarations by the live orchestrator
  uint64_t lender_replacements = 0;   // dead lender slice re-placed on a survivor
  uint64_t lender_degradations = 0;   // dead lender slice dropped (graceful degrade)
  uint64_t journal_records = 0;       // replication deltas shipped to the successor
  uint64_t late_dones = 0;            // completions that raced a failure verdict
  uint64_t ledger_residue_slots = 0;  // committed slots left after final drain (must be 0)
  Histogram detection_ns;             // crash -> orchestrator death declaration
  Histogram recovery_ns;              // crash -> victim lease re-placed/degraded
  FaultPlanStats faults;              // merged fault-plan shards
  RetryStats retry;                   // merged reliable-channel shards
  std::vector<TimeNs> wave_finish_ns; // engine-drain instant per completed wave

  int threads = 0;
  ParallelEventLoop::RunStats core;
};

// Runs the marketplace to completion on the parallel engine (one partition
// per node; threads >= 1 workers). The result is byte-identical across
// worker counts.
MarketplaceResult RunMarketplace(const MarketplaceOptions& opts, int threads);

// Snapshot hooks, following workload/dsmstorm's RunStormEx contract.
struct MarketplaceRunConfig {
  // Save: serialize the whole-sim state once `snapshot_epoch` admission
  // waves (1-based) have completed; the run then continues as usual.
  std::string* snapshot_out = nullptr;
  int snapshot_epoch = 0;

  // Load: resume from this snapshot instead of starting at wave 0. Every
  // MarketplaceOptions field must match the saving run; the worker count may
  // differ. A resumed run's MarketplaceReport() is byte-identical to the
  // uninterrupted run's.
  const std::string* snapshot_in = nullptr;

  // Load-failure sink; without one a load failure aborts.
  std::string* error = nullptr;
};

MarketplaceResult RunMarketplaceEx(const MarketplaceOptions& opts, int threads,
                                   const MarketplaceRunConfig& cfg);

// Canonical, line-oriented dump of everything the determinism contract
// covers (no thread count, no engine bookkeeping). Byte-compare two of
// these to compare two runs.
std::string MarketplaceReport(const MarketplaceResult& r);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_CLUSTER_MARKETPLACE_H_

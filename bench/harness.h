// Shared experiment harness for the figure-reproduction benches.
//
// Builds the three systems the paper compares — FragVisor Aggregate VM,
// per-machine overcommit, and GiantVM — on a simulated cluster (with an
// external 1 GbE client node where the workload needs one), runs a workload,
// and returns the measurements each figure reports.

#ifndef FRAGVISOR_BENCH_HARNESS_H_
#define FRAGVISOR_BENCH_HARNESS_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/ckpt/failover.h"
#include "src/core/aggregate_vm.h"
#include "src/core/fragvisor.h"
#include "src/host/health_monitor.h"
#include "src/host/lease_manager.h"
#include "src/sim/fault_plan.h"
#include "src/workload/faas.h"
#include "src/workload/lemp.h"
#include "src/workload/npb.h"
#include "src/workload/omp.h"

namespace fragvisor {
namespace bench {

// Which of the paper's three systems runs the VM.
enum class System : uint8_t {
  kFragVisor,   // Aggregate VM, one vCPU per node, optimized guest
  kOvercommit,  // all vCPUs on one node, sharing `overcommit_pcpus` pCPUs
  kGiantVm,     // distributed VM on the competitor
};

const char* SystemName(System system);

// Declarative fault-injection request for a bench run; MakeTestBed turns it
// into a seeded FaultPlan attached to the fabric. Everything defaults off, so
// existing benches are untouched (no plan is attached at all).
struct FaultSpec {
  uint64_t seed = 1;  // FaultPlan RNG seed (one stream for every link draw)
  FaultSchedule schedule;
  // Attach a FaultPlan even if no faults are requested (the empty-plan
  // bit-identity guard exercises exactly this).
  bool attach_empty = false;

  bool enabled() const { return attach_empty || schedule.any(); }
};

// Reliability stack for a bench run: heartbeat health monitoring,
// checkpoint/restart failover, and lease protection of borrowed resources.
// Everything defaults off, so existing benches attach nothing.
struct ReliabilitySpec {
  bool protect = false;  // HealthMonitor + FailoverManager + checkpoints
  TimeNs heartbeat_interval = Millis(20);
  int miss_threshold = 3;
  FailureDetector detector = FailureDetector::kFixedMiss;
  TimeNs checkpoint_interval = Millis(100);
  bool partial_recovery = false;  // surgical lender-death recovery
  bool leases = false;            // lease-protect borrowed resources
  TimeNs lease_duration = Millis(200);
  TimeNs lease_renew = Millis(80);

  bool enabled() const { return protect || leases; }
};

struct Setup {
  System system = System::kFragVisor;
  int vcpus = 4;
  int overcommit_pcpus = 1;          // only for kOvercommit
  bool with_client = false;          // add an external 1 GbE client node
  GuestKernelConfig guest = GuestKernelConfig::Optimized();
  bool io_multiqueue = true;
  bool io_dsm_bypass = true;
  bool contextual_dsm = true;
  BlkBackend blk_backend = BlkBackend::kVhostBlk;
  // GiantVM only: co-locate the QEMU helper threads with the vCPUs instead
  // of giving them extra pCPUs (the paper reports GiantVM's best case, i.e.
  // extra pCPUs; co-location is the honest-accounting alternative).
  bool giantvm_colocated_helpers = false;
  // Rpc layer features (multicast ack coalescing, QoS link scheduling). All
  // off by default, keeping every existing bench bit-identical.
  RpcConfig rpc;
  // DSM fast paths + sequential read prefetch depth (fvsim --dsm-* flags).
  // All off by default, keeping every existing bench bit-identical.
  int dsm_prefetch = 0;
  bool dsm_owner_hints = false;
  bool dsm_replicate = false;
  bool dsm_adaptive = false;
  bool dsm_rdma_read = false;
  bool dsm_compress = false;
  FaultSpec faults;
  ReliabilitySpec reliability;
};

// A cluster plus one VM configured per `setup`. The client node (if any) is
// the last fabric node.
struct TestBed {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<AggregateVm> vm;
  NodeId client_node = kInvalidNode;
  // Present iff setup.faults.enabled(); attached to the cluster fabric (which
  // does not take ownership, so the plan must outlive the cluster's loop).
  std::unique_ptr<FaultPlan> fault_plan;
  // Present iff setup.reliability asked for them (AttachReliability).
  std::unique_ptr<HealthMonitor> health;
  std::unique_ptr<FailoverManager> failover;
  std::unique_ptr<LeaseManager> leases;
};

TestBed MakeTestBed(const Setup& setup);

// Wires the reliability stack per setup.reliability: heartbeats from every
// node to the DSM home, checkpoint protection with optional partial recovery,
// and lease coverage of all borrowed resources. Must run after vm->Boot()
// (the first checkpoint snapshots live vCPU state). No-op when
// setup.reliability.enabled() is false.
void AttachReliability(TestBed& bed, const Setup& setup);

// Flattened injected-fault / recovery counters for printing and for the
// same-seed reproducibility assertions.
struct FaultReport {
  // Injected by the plan.
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  // Reliable-channel reactions (summed over nodes).
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t send_failures = 0;
  uint64_t dups_suppressed = 0;
  // DSM protocol reactions.
  uint64_t dsm_retries = 0;
  uint64_t dsm_absorbed = 0;
  uint64_t dsm_write_aborts = 0;
  uint64_t dsm_pages_reclaimed = 0;

  bool operator==(const FaultReport& other) const;
};

FaultReport CollectFaultReport(const Fabric& fabric, const DsmEngine* dsm, const FaultPlan* plan);
FaultReport CollectFaultReport(const TestBed& bed);
void PrintFaultReport(const FaultReport& report);

// Flattened detection/recovery/lease measurements for the end-of-run
// reports and the fvsim --protect recovery report. Latencies in ms;
// percentiles come from the underlying log2 histograms.
struct ReliabilityReport {
  // Detection.
  uint64_t failures_detected = 0;
  uint64_t recoveries_detected = 0;
  uint64_t suspicions_raised = 0;
  uint64_t slow_marks = 0;
  double detection_p50_ms = 0.0;
  double detection_p99_ms = 0.0;
  // Recovery, per mechanism.
  uint64_t checkpoints = 0;
  uint64_t vcpus_evacuated = 0;
  uint64_t failovers = 0;  // full restores
  uint64_t partial_recoveries = 0;
  double evacuation_p50_ms = 0.0;
  double evacuation_p99_ms = 0.0;
  double full_recovery_p50_ms = 0.0;
  double full_recovery_p99_ms = 0.0;
  double partial_recovery_p50_ms = 0.0;
  double partial_recovery_p99_ms = 0.0;
  double full_lost_work_ms = 0.0;     // mean replay per full restore
  double partial_lost_work_ms = 0.0;  // mean replay per partial recovery
  // Leases.
  uint64_t leases_granted = 0;
  uint64_t leases_renewed = 0;
  uint64_t leases_expired = 0;
  uint64_t leases_revoked = 0;
  uint64_t lease_renew_failures = 0;
  uint64_t lease_handbacks = 0;
};

ReliabilityReport CollectReliabilityReport(const TestBed& bed);
void PrintReliabilityReport(const ReliabilityReport& report);

// Flattened per-MsgKind fabric traffic plus rpc-layer aggregates, for the
// end-of-run reports and the fvsim --msg-stats JSON dump.
struct MsgStatsReport {
  uint64_t messages[static_cast<size_t>(MsgKind::kCount)] = {};
  uint64_t bytes[static_cast<size_t>(MsgKind::kCount)] = {};
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  uint64_t rpc_calls = 0;
  uint64_t rpc_datagrams = 0;
  uint64_t rpc_multicast_rounds = 0;
  uint64_t rpc_acks_coalesced = 0;
  uint64_t rpc_qos_deferred = 0;
};

MsgStatsReport CollectMsgStats(const TestBed& bed);
// Kinds with zero traffic are omitted from the table; the JSON lists all.
void PrintMsgStats(const MsgStatsReport& report);
std::string MsgStatsJson(const MsgStatsReport& report);

// Flattened DSM fast-path counters (owner hints / read-mostly replication /
// adaptive granularity), for the fvsim per-fast-path report columns.
struct DsmFastPathReport {
  uint64_t hint_hits = 0;
  uint64_t hint_stale = 0;
  uint64_t replica_reads = 0;
  uint64_t region_transfers = 0;
  uint64_t read_mostly_promotions = 0;
  uint64_t hold_escalations = 0;
  uint64_t prefetched_pages = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  double fault_latency_mean_us = 0.0;
  // Transport fast paths (all zero unless --dsm-rdma-read / --dsm-compress).
  uint64_t rdma_reads = 0;
  uint64_t compressed_transfers = 0;
  uint64_t delta_transfers = 0;
  uint64_t transfer_bytes_saved = 0;
};

DsmFastPathReport CollectDsmFastPathReport(const DsmEngine& dsm);
DsmFastPathReport CollectDsmFastPathReport(const TestBed& bed);
void PrintDsmFastPathReport(const DsmFastPathReport& report);

// --- Workload runners (return what the figures plot) ---

// One serial NPB instance per vCPU; returns total completion time of the set.
// Optionally reports the DSM fault rate, the fault/retry counters, and the
// per-kind message traffic.
TimeNs RunNpbMultiProcess(const Setup& setup, const NpbProfile& profile, uint64_t seed = 1,
                          double* faults_per_sec = nullptr,
                          FaultReport* fault_report = nullptr,
                          MsgStatsReport* msg_stats = nullptr,
                          ReliabilityReport* reliability = nullptr,
                          DsmFastPathReport* fastpath = nullptr);

// OMP-style multithreaded run (one thread per vCPU over a shared region);
// returns completion time and DSM faults/second via out-params.
TimeNs RunOmp(const Setup& setup, const OmpProfile& profile, double* faults_per_sec,
              uint64_t seed = 1);

// LEMP closed loop; returns client-observed throughput (req/s).
double RunLemp(const Setup& setup, const LempConfig& lemp, double* faults_per_sec = nullptr,
               MsgStatsReport* msg_stats = nullptr);

// OpenLambda run; returns per-phase means.
FaasPhaseStats RunFaas(const Setup& setup, const FaasConfig& faas,
                       double* faults_per_sec = nullptr, MsgStatsReport* msg_stats = nullptr);

// --- Output helpers (paper-style rows) ---

void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells, int width = 14);
std::string Fmt(double value, int precision = 2);

}  // namespace bench
}  // namespace fragvisor

#endif  // FRAGVISOR_BENCH_HARNESS_H_

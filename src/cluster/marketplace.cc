#include "src/cluster/marketplace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/sim_snapshot.h"
#include "src/host/health_monitor.h"
#include "src/host/node.h"
#include "src/sched/fragbff.h"
#include "src/sim/check.h"
#include "src/sim/options_text.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/state_io.h"

namespace fragvisor {
namespace {

constexpr uint64_t kCtrlBytes = 256;    // orchestrator control messages
constexpr uint64_t kReqBytes = 64;      // remote page request
constexpr uint64_t kPageBytes = 4096 + 64;
constexpr uint64_t kJournalBytes = 64;  // admission/lease-book delta record
constexpr uint64_t kBeatBytes = 64;     // orchestrator -> successor heartbeat

// Control-token ops, multiplexed over MsgKind::kVcpuMigration (orchestrator
// -> node), MsgKind::kControl (node -> orchestrator, plus heartbeats) and,
// for the failover journal, MsgKind::kCheckpointData (orchestrator ->
// successor). Ops >= kOpNewOrch only ever appear when a fault plan is
// attached; a fault-free run's wire traffic is byte-identical to the
// pre-fault-tolerance marketplace.
constexpr uint64_t kOpStart = 0;     // begin the VM's request streams
constexpr uint64_t kOpCallHome = 1;  // a lender share was consolidated home
constexpr uint64_t kOpVmDone = 2;    // all streams drained
constexpr uint64_t kOpNewOrch = 3;   // takeover: route future dones at src
constexpr uint64_t kOpQuery = 4;     // takeover: report your live homed VMs
constexpr uint64_t kOpDropLender = 5;     // dead lender slice dropped (arg)
constexpr uint64_t kOpReplaceLender = 6;  // dead lender slice re-placed (wide)
constexpr uint64_t kOpPing = 7;      // orchestrator liveness probe (reliable)
constexpr uint64_t kOpQVm = 8;       // interrogation reply: one homed VM
constexpr uint64_t kOpQueryDone = 9; // interrogation trailer; arg = VM count
constexpr uint64_t kOpBeat = 10;     // heartbeat datagram (unreliable)
// Journal records (orchestrator -> successor over kCheckpointData).
constexpr uint64_t kJrnHello = 16;    // (re)sync start; arg = orchestrator id
constexpr uint64_t kJrnAdmit = 17;    // VM admitted
constexpr uint64_t kJrnDone = 18;     // VM completed
constexpr uint64_t kJrnFail = 19;     // VM failed; arg = VmFailReason
constexpr uint64_t kJrnDead = 20;     // arg = node declared dead
constexpr uint64_t kJrnQuiesce = 21;  // outstanding work hit zero; disarm

// Token layout: [op : 8][vm : 40][arg : 16] — arg carries a stream index or
// a node id depending on the op.
uint64_t PackCtl(uint64_t op, uint64_t vm, uint64_t arg) {
  FV_DCHECK(op < (1ull << 8));
  FV_DCHECK(vm < (1ull << 40));
  FV_DCHECK(arg < (1ull << 16));
  return (op << 56) | (vm << 16) | arg;
}
uint64_t CtlOp(uint64_t token) { return token >> 56; }
uint64_t CtlVm(uint64_t token) { return (token >> 16) & ((1ull << 40) - 1); }
uint64_t CtlArg(uint64_t token) { return token & 0xffff; }

// Wide layout for ops that carry two node ids: [op : 8][vm : 32][a : 12]
// [b : 12]. CtlOp() works on both layouts (the op always sits in the top
// byte); node ids are bounded to 4096 when a fault plan is attached.
uint64_t PackWide(uint64_t op, uint64_t vm, uint64_t a, uint64_t b) {
  FV_DCHECK(op < (1ull << 8));
  FV_DCHECK(vm < (1ull << 32));
  FV_DCHECK(a < (1ull << 12));
  FV_DCHECK(b < (1ull << 12));
  return (op << 56) | (vm << 24) | (a << 12) | b;
}
uint64_t WideVm(uint64_t token) { return (token >> 24) & 0xffffffffull; }
uint64_t WideA(uint64_t token) { return (token >> 12) & 0xfff; }
uint64_t WideB(uint64_t token) { return token & 0xfff; }

enum class VmStatus : uint8_t {
  kPending = 0,
  kWaiting = 1,
  kRunning = 2,
  kDone = 3,
  kFailed = 4,  // terminal under faults; exactly-once with kDone
};

struct StreamRt {
  Rng rng{0};
  uint64_t remaining = 0;
  TimeNs issue = 0;       // issue instant of the in-flight request
  bool awaiting = false;  // a completion for the in-flight request is owed
};

// One VM's run state. Orchestrator fields only ever run on the orchestrator
// node's partition (node 0 until a failover moves the role); home-runtime
// fields are written by the orchestrator strictly before the start notice
// and thereafter touched only by the home node's partition (the delivery
// gives the happens-before edge), so the whole struct is race-free without
// locking. A successor reads the dead orchestrator's fields only from
// takeover time onward — at least a full retry horizon past the crash, far
// beyond the engine's lookahead, so the window barriers order every prior
// write before the read and the fields are frozen (every handler that could
// mutate them is liveness-gated off).
struct VmRun {
  // Static shape, fixed at construction from the arrival trace.
  int vcpus = 0;
  uint64_t mem_per_slot = 0;
  uint64_t requests_per_stream = 0;
  double remote_frac = 0.0;

  // Orchestrator-owned.
  VmStatus status = VmStatus::kPending;
  TimeNs submitted = 0;
  TimeNs started = 0;
  TimeNs finished = 0;
  std::vector<std::pair<NodeId, int>> alloc;  // (node, slots), home first
  std::vector<LeaseId> leases;                // one per non-home slice
  int span = 0;                               // |alloc| (post-consolidation)
  bool was_delayed = false;
  uint8_t fail_reason = 0;  // VmFailReason once kFailed

  // Written by the orchestrator before the start notice, home-owned after.
  NodeId home = kInvalidNode;
  std::vector<NodeId> lenders;  // non-home slices; shrinks on consolidation
  std::vector<StreamRt> rt;
  int live_streams = 0;
  TimeNs home_epoch = -1;     // start-notice arrival; gates zombie streams
  bool home_done = false;     // all streams drained (home's ground truth)
  TimeNs home_finished = 0;
  int done_attempts = 0;      // done-notify redirect retries so far

  // Saved in part (mkt.vms), in wire order: a wave boundary holds only the
  // outcome. The static shape comes from the trace; the load rebuilds
  // home_done, home_finished and home_epoch from the outcome, and a drained
  // wave leaves the rest at its defaults.
  static constexpr bool kSavedInPart = true;
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(As<uint8_t>(s.status)...);
    v(As<uint8_t>(s.was_delayed)...);
    v(s.submitted...);
    v(s.started...);
    v(s.finished...);
    v(As<int64_t>(s.home)...);
    v(As<uint32_t>(s.span)...);
    v(s.fail_reason...);
  }
};

// Per-node runtime owned by that node's partition (the monitor block is
// owned by the node only while it is the orchestrator's successor).
struct NodeRt {
  MarketplaceNodeCounters c;
  Histogram latency;  // latency of requests homed on this node

  // Home-owned routing state.
  NodeId orch_view = 0;             // where done notices go (legacy: node 0)
  std::vector<uint64_t> homed_vms;  // VMs homed here, ascending

  // Own-partition role epoch: when this node (last) became orchestrator;
  // -1 = never. A crash at or after this instant ends the reign.
  TimeNs orch_since = -1;

  // Successor-owned failure detector + journal shadow.
  PhiAccrualEstimator monitor;
  TimeNs monitor_epoch = -1;  // armed-at instant; a later own-crash disarms
  bool monitor_armed = false;
  bool monitor_check_running = false;
  NodeId watching = kInvalidNode;
  std::vector<uint8_t> shadow;     // per-VM journal view (VmStatus values)
  std::vector<uint8_t> shadow_up;  // per-node journal view of believed_up

  // Saved in part (mkt.nodes), in wire order. The load rebuilds orch_view and
  // homed_vms from the VM outcomes and restores orch_since from mkt.fault; the
  // successor's monitor and shadow start fresh.
  static constexpr bool kSavedInPart = true;
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.c...);
    v(s.latency...);
  }
};

// Orchestrator outcomes, saved in mkt.orch.
struct OrchCounters {
  uint64_t placed_single = 0;
  uint64_t placed_aggregate = 0;
  uint64_t delayed = 0;
  uint64_t reclaims = 0;
  uint64_t vms_completed = 0;

  // The field list (src/sim/state_io.h), in snapshot wire and digest order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.placed_single...);
    v(s.placed_aggregate...);
    v(s.delayed...);
    v(s.reclaims...);
    v(s.vms_completed...);
  }
};

// Fault-tolerance outcomes, saved in mkt.fault.
struct FailoverCounters {
  uint64_t failovers = 0;
  uint64_t vms_failed = 0;
  uint64_t nodes_died = 0;
  uint64_t lender_replacements = 0;
  uint64_t lender_degradations = 0;
  uint64_t journal_records = 0;
  uint64_t late_dones = 0;
  uint64_t shadow_divergence = 0;

  // The field list (src/sim/state_io.h), in snapshot wire order. The digest
  // mixes a pinned subset in its own order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.failovers...);
    v(s.vms_failed...);
    v(s.nodes_died...);
    v(s.lender_replacements...);
    v(s.lender_degradations...);
    v(s.journal_records...);
    v(s.late_dones...);
    v(s.shadow_divergence...);
  }
};

class Marketplace {
 public:
  Marketplace(const MarketplaceOptions& opts, int threads, bool arm_plan);

  MarketplaceResult Run(const MarketplaceRunConfig& cfg);
  // Restores a snapshot into this freshly built marketplace. On failure,
  // latches the error on the reader; the instance must then be discarded.
  bool Load(SnapshotReader* r);

 private:
  EventLoop* NodeLoop(NodeId node) { return ploop_->partition(node); }
  TimeNs OrchNow() { return NodeLoop(orch_node_)->now(); }

  // --- Liveness gates (all no-ops without a fault plan) ---
  //
  // Crashed nodes lose their wire traffic but their locally-scheduled timer
  // events still fire, so every self-scheduled chain and every handler that
  // acts on behalf of a role re-checks that the role survived.

  // `n` still holds the orchestrator role it held when the event was armed:
  // it became orchestrator at some point and has not crashed since.
  bool RoleIntact(NodeId n, TimeNs now) const {
    if (nodes_[static_cast<size_t>(n)].orch_since < 0) return false;
    if (!faulty_) return true;
    return plan_->NodeUp(n, now) &&
           plan_->LastCrashBefore(n, now) < nodes_[static_cast<size_t>(n)].orch_since;
  }
  // The VM's home-side stream state is still the live incarnation (the home
  // has not crashed since the start notice arrived).
  bool StreamLive(const VmRun& run, TimeNs now) const {
    if (!faulty_) return true;
    return run.home_epoch >= 0 && plan_->NodeUp(run.home, now) &&
           plan_->LastCrashBefore(run.home, now) < run.home_epoch;
  }
  bool NodeUpAt(NodeId n, TimeNs now) const { return !faulty_ || plan_->NodeUp(n, now); }

  // How long a successor must wait past the crash instant before touching
  // the dead orchestrator's lease book and VM table: every reliable send the
  // dead node had in flight fails (on its source partition) within the retry
  // backoff ceiling, after which the book is frozen.
  TimeNs SettleDelay() const { return rpolicy_.max_grace + Millis(2); }

  // Work the orchestrator still owes this wave.
  uint64_t Outstanding() const {
    return arrivals_pending_ + static_cast<uint64_t>(waiting_.size()) + running_count_;
  }

  // Lease handback bound to the book's home *at grant time*: if that node
  // lost the orchestrator role (crashed; the successor rebuilt the book
  // elsewhere), the stale continuation must not act.
  LeaseManager::HandbackFn Handback() {
    const NodeId bh = leases_->home();
    return [this, bh](const Lease& lease, LeaseEvent event) {
      if (faulty_ && !RoleIntact(bh, NodeLoop(bh)->now())) return;
      OnLeaseEvent(lease, event);
    };
  }

  void BuildWaveSchedule(int wave);
  void ScheduleWave();
  void ScheduleKickoff();
  void RunEngine();
  bool WaveTerminal(int wave) const;
  void CheckWaveDrained(int wave);
  std::string Save();
  uint64_t ConfigFingerprint() const;
  uint64_t Digest() const;

  // Orchestrator (runs on orch_node_'s partition).
  void OnArrival(uint64_t vm);
  void TryAdmitAll();
  bool TryAdmit(uint64_t vm);
  bool TryReclaim();
  void OnLeaseEvent(const Lease& lease, LeaseEvent event);
  void OnVmDone(uint64_t vm);
  void SampleSeries();
  void OnControl(const RpcLayer::Inbound& in);
  void OnVcpuCtl(const RpcLayer::Inbound& in);

  // Failure handling on the live orchestrator.
  void DeclareNodeDead(NodeId n, bool record);
  void FailVm(uint64_t vm, VmFailReason reason, TimeNs now);
  void RecoverLostLender(const Lease& lease);

  // Journal replication + heartbeats (orchestrator side).
  void Journal(uint64_t op, uint64_t vm, uint64_t arg);
  void PickSuccessor();
  void ResyncShadow();
  void EnsureFailoverActive(NodeId me);
  void BeatChain(NodeId me);
  void ProbeChain(NodeId me);

  // Successor side: shadow, detector, takeover.
  void HandleJournal(const RpcLayer::Inbound& in);
  void MonitorCheck(NodeId me);
  void StartTakeover(NodeId me, TimeNs crash_t, TimeNs epoch);
  void HandleQuery(const RpcLayer::Inbound& in);
  void MaybeFinishTakeover(NodeId me);
  void FinishTakeover(NodeId me);
  void WaveKickoff(NodeId me);

  // Stopped-engine backstops (no events in flight; cross-partition safe).
  void WavePrep();
  void DriverRecover(int wave);

  // Home-partition request streams.
  void OnVmStart(const RpcLayer::Inbound& in);
  void OnCallHome(uint64_t vm, NodeId lender);
  void DoRequest(uint64_t vm, int stream);
  void Complete(uint64_t vm, int stream);
  void SendVmDone(uint64_t vm);
  void RetryVmDone(uint64_t vm);
  void OnPageRequest(const RpcLayer::Inbound& in);
  void OnPageReply(const RpcLayer::Inbound& in);

  const MarketplaceOptions opts_;
  const int threads_;
  std::unique_ptr<ParallelEventLoop> ploop_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<RpcLayer> rpc_;
  std::unique_ptr<LeaseManager> leases_;

  // Fault machinery (null/inert when no faults are configured).
  bool faulty_ = false;
  RetryPolicy rpolicy_;
  std::unique_ptr<FaultPlan> plan_;

  std::vector<VmArrival> arrivals_;  // sorted by (time, vm)
  std::vector<VmRun> vms_;           // indexed by vm - 1; never resized
  std::vector<NodeRt> nodes_;        // indexed by node; partition-owned

  // Orchestrator state (orch_node_'s partition only).
  NodeId orch_node_ = 0;
  NodeId successor_ = kInvalidNode;
  std::vector<uint8_t> believed_up_;
  std::vector<TenantLedger> ledgers_;
  std::deque<uint64_t> waiting_;  // FIFO of vm ids awaiting admission
  bool reclaim_in_flight_ = false;
  LeaseId pending_reclaim_lease_ = kInvalidLease;
  uint64_t running_count_ = 0;
  uint64_t arrivals_pending_ = 0;
  bool beats_active_ = false;
  bool probes_active_ = false;
  OrchCounters orch_counts_;
  TimeSeries consolidation_;
  TimeSeries stranded_;

  // Takeover scratch (successor's partition while takeover_active_).
  bool takeover_active_ = false;
  TimeNs takeover_crash_t_ = -1;
  std::vector<std::pair<uint64_t, uint8_t>> takeover_reports_;  // (vm, done)
  std::vector<uint64_t> deferred_dones_;
  std::vector<int32_t> takeover_expect_;  // -3 unqueried, -2 awaiting, -1 dead, >=0 count
  std::vector<int32_t> takeover_have_;

  // Fault-tolerance counters (orchestrator-owned; they transfer with the
  // role under the same settle-time freeze as the rest of the orch state).
  FailoverCounters fault_counts_;
  Histogram detection_ns_;
  Histogram recovery_ns_;

  std::vector<std::pair<TimeNs, uint64_t>> wave_sched_;  // (at, vm), this wave
  std::vector<TimeNs> wave_finish_;

  RunProgress progress_;  // waves and events, counting restored ones too
};

Marketplace::Marketplace(const MarketplaceOptions& opts, int threads, bool arm_plan)
    : opts_(opts), threads_(threads < 1 ? 1 : threads) {
  if (const char* why = opts.Invalid()) {
    CheckFailed(__FILE__, __LINE__, why);
  }

  ParallelEventLoop::Options po;
  po.num_partitions = opts.num_nodes;
  po.num_threads = threads_;
  // The minimum effective first-hop latency is the cluster-wide floor:
  // jitter only ever adds, and fat-tree cross-pod paths only ever add more.
  po.lookahead = Fabric::MinEffectiveLatency(opts.topology, opts.link, opts.num_nodes);
  ploop_ = std::make_unique<ParallelEventLoop>(po);
  fabric_ = std::make_unique<Fabric>(ploop_.get(), opts.num_nodes, opts.link, opts.topology);

  fabric_->JitterLinks(opts.latency_jitter_ns, opts.trace.seed);

  faulty_ = opts.faults.any();
  if (faulty_) {
    plan_ = std::make_unique<FaultPlan>(SplitMix64(opts.fault_seed ^ 0xc1a05ull));
    plan_->EnablePerNodeStreams(opts.num_nodes);
    plan_->Schedule(opts.faults, opts.num_nodes);
    // A restored run resumes past every transition marker (wave boundaries
    // drain the whole queue, markers included), so re-arming would fire them
    // again at the resume instant and double-count the fault counters.
    fabric_->AttachFaultPlan(plan_.get(), rpolicy_, arm_plan);
  }

  RpcConfig rc;
  rc.coalesced_acks = opts.coalesced_acks;
  rc.qos.enabled = opts.qos;
  rpc_ = std::make_unique<RpcLayer>(nullptr, fabric_.get(), rc);

  LeaseManagerConfig lc;
  lc.manual_clock = true;
  leases_ = std::make_unique<LeaseManager>(rpc_.get(), /*home=*/0, lc);

  ledgers_.resize(static_cast<size_t>(opts.num_nodes));
  for (TenantLedger& l : ledgers_) {
    l.Init(opts.mem_per_node, opts.vcpus_per_node);
  }

  arrivals_ = GenerateArrivalTrace(opts.trace);
  vms_.resize(arrivals_.size());
  for (const VmArrival& a : arrivals_) {
    VmRun& run = vms_[a.vm - 1];
    run.vcpus = a.vcpus;
    run.mem_per_slot = a.mem_bytes / static_cast<uint64_t>(a.vcpus);
    run.requests_per_stream = a.requests / static_cast<uint64_t>(a.vcpus);
    run.remote_frac = a.remote_frac;
  }

  believed_up_.assign(static_cast<size_t>(opts.num_nodes), 1);
  nodes_.resize(static_cast<size_t>(opts.num_nodes));
  nodes_[0].orch_since = 0;  // node 0 opens every run as the orchestrator
  for (NodeId n = 0; n < opts.num_nodes; ++n) {
    rpc_->Bind(n, MsgKind::kControl, [this](const RpcLayer::Inbound& in) { OnControl(in); });
    rpc_->Bind(n, MsgKind::kVcpuMigration,
               [this](const RpcLayer::Inbound& in) { OnVcpuCtl(in); });
    rpc_->Bind(n, MsgKind::kCheckpointData,
               [this](const RpcLayer::Inbound& in) { HandleJournal(in); });
    rpc_->Bind(n, MsgKind::kDsmReadReq,
               [this](const RpcLayer::Inbound& in) { OnPageRequest(in); });
    rpc_->Bind(n, MsgKind::kDsmPageData,
               [this](const RpcLayer::Inbound& in) { OnPageReply(in); });
  }
}

// Computes one admission wave's (arrival instant, vm) schedule. Wave 0 of a
// fresh run uses the trace's absolute timestamps; every later wave — and
// every wave of a restored run — keeps the trace's inter-arrival gaps but
// starts one full link latency past the drained queue's end, which keeps
// every resulting send legal against the parallel core's horizon.
void Marketplace::BuildWaveSchedule(int wave) {
  wave_sched_.clear();
  const size_t n = arrivals_.size();
  const size_t per = (n + static_cast<size_t>(opts_.epochs) - 1) / static_cast<size_t>(opts_.epochs);
  const size_t begin = static_cast<size_t>(wave) * per;
  const size_t end = std::min(n, begin + per);
  if (begin >= end) return;
  const TimeNs now = ploop_->now_max();
  const TimeNs base = now == 0 ? 0 : now + opts_.link.latency + 1;
  const TimeNs first = arrivals_[begin].time;
  for (size_t i = begin; i < end; ++i) {
    const VmArrival& a = arrivals_[i];
    const TimeNs at = now == 0 ? a.time : base + (a.time - first);
    wave_sched_.emplace_back(at, a.vm);
  }
}

void Marketplace::ScheduleWave() {
  arrivals_pending_ = wave_sched_.size();
  const NodeId m = orch_node_;
  for (const std::pair<TimeNs, uint64_t>& ws : wave_sched_) {
    const TimeNs at = ws.first;
    const uint64_t vmid = ws.second;
    NodeLoop(m)->ScheduleAt(at, [this, vmid, m] {
      if (faulty_ && !RoleIntact(m, NodeLoop(m)->now())) return;
      if (vms_[vmid - 1].status != VmStatus::kPending) return;
      --arrivals_pending_;
      OnArrival(vmid);
    });
  }
}

// Scheduled before the wave's arrivals at the same instant (same-time FIFO),
// so the kickoff refreshes the orchestrator's liveness view and arms the
// failover machinery before the first admission decision.
void Marketplace::ScheduleKickoff() {
  const NodeId m = orch_node_;
  NodeLoop(m)->ScheduleAt(wave_sched_.front().first, [this, m] {
    if (!RoleIntact(m, NodeLoop(m)->now())) return;
    WaveKickoff(m);
  });
}

void Marketplace::RunEngine() { progress_.events += ploop_->Run(); }

bool Marketplace::WaveTerminal(int wave) const {
  const size_t n = arrivals_.size();
  const size_t per = (n + static_cast<size_t>(opts_.epochs) - 1) / static_cast<size_t>(opts_.epochs);
  const size_t end = std::min(n, (static_cast<size_t>(wave) + 1) * per);
  for (size_t i = 0; i < end; ++i) {
    const VmStatus st = vms_[arrivals_[i].vm - 1].status;
    if (st != VmStatus::kDone && st != VmStatus::kFailed) return false;
  }
  return true;
}

void Marketplace::CheckWaveDrained(int wave) {
  FV_CHECK(waiting_.empty());
  FV_CHECK(!reclaim_in_flight_);
  FV_CHECK_EQ(leases_->ActiveLeases(), 0);
  for (const TenantLedger& l : ledgers_) {
    FV_CHECK_EQ(l.num_tenants(), 0);
  }
  const size_t n = arrivals_.size();
  const size_t per = (n + static_cast<size_t>(opts_.epochs) - 1) / static_cast<size_t>(opts_.epochs);
  const size_t end = std::min(n, (static_cast<size_t>(wave) + 1) * per);
  for (size_t i = 0; i < end; ++i) {
    const VmStatus st = vms_[arrivals_[i].vm - 1].status;
    FV_CHECK(st == VmStatus::kDone || (faulty_ && st == VmStatus::kFailed));
  }
}

// Wave-start backstop, engine stopped: if the orchestrator role died in a
// previous wave (or between waves) no event can elect a successor, so the
// driver does — deterministically, onto the lowest surviving node.
void Marketplace::WavePrep() {
  const TimeNs t = ploop_->now_max();
  if (!RoleIntact(orch_node_, t)) {
    NodeId m = kInvalidNode;
    for (NodeId n = 0; n < opts_.num_nodes; ++n) {
      if (plan_->NodeUp(n, t)) {
        m = n;
        break;
      }
    }
    FV_CHECK_NE(m, kInvalidNode);  // a wholly-dead cluster cannot make progress
    ++fault_counts_.failovers;
    orch_node_ = m;
    nodes_[static_cast<size_t>(m)].orch_since = t;
    leases_->FailoverReset(m);
    for (NodeRt& nr : nodes_) nr.orch_view = m;
  }
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    believed_up_[static_cast<size_t>(n)] = plan_->NodeUp(n, t) ? 1 : 0;
  }
  successor_ = kInvalidNode;
  beats_active_ = probes_active_ = false;
  takeover_active_ = false;
  deferred_dones_.clear();
}

// Stopped-engine recovery backstop: the wave's events drained but some VMs
// are not terminal (the orchestrator died with no armed successor, arrivals
// were gated away, done notices never landed, or survivors cannot fit a
// waiting tenant). Reconciles to a state from which the wave either makes
// progress or every stuck VM is failed exactly once.
void Marketplace::DriverRecover(int wave) {
  (void)wave;
  const TimeNs t = ploop_->now_max() + 1;
  bool changed = false;

  if (!RoleIntact(orch_node_, ploop_->now_max())) {
    NodeId m = kInvalidNode;
    for (NodeId n = 0; n < opts_.num_nodes; ++n) {
      if (plan_->NodeUp(n, ploop_->now_max())) {
        m = n;
        break;
      }
    }
    FV_CHECK_NE(m, kInvalidNode);
    ++fault_counts_.failovers;
    orch_node_ = m;
    nodes_[static_cast<size_t>(m)].orch_since = t;
    leases_->FailoverReset(m);
    for (NodeRt& nr : nodes_) nr.orch_view = m;
    changed = true;
  }
  successor_ = kInvalidNode;
  beats_active_ = probes_active_ = false;
  takeover_active_ = false;
  takeover_crash_t_ = -1;
  takeover_reports_.clear();
  deferred_dones_.clear();
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    const uint8_t up = plan_->NodeUp(n, ploop_->now_max()) ? 1 : 0;
    if (up != believed_up_[static_cast<size_t>(n)]) changed = true;  // e.g. a rejoin adds capacity
    believed_up_[static_cast<size_t>(n)] = up;
  }

  // The book and ledgers are rebuilt from the VM table (the drained engine
  // froze everything; entries referencing in-flight protocol legs are moot).
  for (size_t n = 0; n < ledgers_.size(); ++n) {
    ledgers_[n] = TenantLedger();
    ledgers_[n].Init(opts_.mem_per_node, opts_.vcpus_per_node);
  }
  reclaim_in_flight_ = false;
  pending_reclaim_lease_ = kInvalidLease;
  running_count_ = 0;
  arrivals_pending_ = 0;

  for (size_t i = 0; i < vms_.size(); ++i) {
    VmRun& run = vms_[i];
    if (run.status != VmStatus::kRunning) continue;
    changed = true;
    for (const LeaseId id : run.leases) leases_->Drop(id);
    run.leases.clear();
    // The home's own record decides: a drained engine means its done notice
    // can never arrive, so the driver reads the frozen truth directly.
    if (believed_up_[static_cast<size_t>(run.home)] && run.home_done) {
      run.status = VmStatus::kDone;
      run.finished = std::max(run.home_finished, t);
      ++orch_counts_.vms_completed;
    } else {
      run.status = VmStatus::kFailed;
      run.fail_reason = static_cast<uint8_t>(believed_up_[static_cast<size_t>(run.home)]
                                                 ? VmFailReason::kOrchLost
                                                 : VmFailReason::kHomeCrash);
      run.finished = t;
      ++fault_counts_.vms_failed;
    }
  }

  // Arrivals whose timer fired on a dead orchestrator's partition were gated
  // away; replay them at or after the recovery instant.
  for (const std::pair<TimeNs, uint64_t>& ws : wave_sched_) {
    const uint64_t vmid = ws.second;
    if (vms_[vmid - 1].status != VmStatus::kPending) continue;
    const TimeNs at = std::max(ws.first, t);
    const NodeId m = orch_node_;
    ++arrivals_pending_;
    changed = true;
    NodeLoop(m)->ScheduleAt(at, [this, vmid, m] {
      if (!RoleIntact(m, NodeLoop(m)->now())) return;
      if (vms_[vmid - 1].status != VmStatus::kPending) return;
      --arrivals_pending_;
      OnArrival(vmid);
    });
  }

  if (!changed) {
    // Nothing moved and nothing will: the surviving cluster can never fit
    // the waiting tenants.
    for (const uint64_t vmid : waiting_) {
      VmRun& run = vms_[vmid - 1];
      FV_CHECK(run.status == VmStatus::kWaiting);
      run.status = VmStatus::kFailed;
      run.fail_reason = static_cast<uint8_t>(VmFailReason::kCapacity);
      run.finished = t;
      ++fault_counts_.vms_failed;
    }
    waiting_.clear();
  }

  const NodeId m = orch_node_;
  NodeLoop(m)->ScheduleAt(t, [this, m] {
    if (!RoleIntact(m, NodeLoop(m)->now())) return;
    WaveKickoff(m);
  });
}

// --- Orchestrator (everything below until the failover section runs on the
// orchestrator node's partition exclusively) ---

void Marketplace::OnArrival(uint64_t vm) {
  VmRun& run = vms_[vm - 1];
  FV_CHECK(run.status == VmStatus::kPending);
  run.status = VmStatus::kWaiting;
  run.submitted = OrchNow();
  waiting_.push_back(vm);
  TryAdmitAll();
}

void Marketplace::TryAdmitAll() {
  // Admission pauses while a reclamation round trip is in flight: its ledger
  // move is already decided and must not race a fresh admission for the same
  // capacity.
  if (reclaim_in_flight_) return;
  while (!waiting_.empty()) {
    const uint64_t vm = waiting_.front();
    if (TryAdmit(vm)) {
      waiting_.pop_front();
      continue;
    }
    VmRun& run = vms_[vm - 1];
    if (!run.was_delayed) {
      run.was_delayed = true;
      ++orch_counts_.delayed;
    }
    if (opts_.reclamation && TryReclaim()) return;  // resume on the handback
    return;  // head-of-line waits; completions re-trigger admission
  }
}

bool Marketplace::TryAdmit(uint64_t vm) {
  VmRun& run = vms_[vm - 1];
  // Each node's usable slots: its free vCPU slots, capped by the memory each
  // slot drags along (a slice hosts its own memory). Nodes the orchestrator
  // believes dead lend nothing and home nobody.
  std::vector<int> usable(ledgers_.size(), 0);
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    if (faulty_ && !believed_up_[static_cast<size_t>(n)]) continue;
    const TenantLedger& l = ledgers_[static_cast<size_t>(n)];
    int slots = std::max(l.free_vcpus(), 0);
    if (run.mem_per_slot > 0) {
      slots = static_cast<int>(
          std::min(static_cast<uint64_t>(slots), l.free_mem() / run.mem_per_slot));
    }
    usable[static_cast<size_t>(n)] = slots;
  }
  // fragbff: whole on the tightest-fitting node, else the smallest fragments
  // first, keeping big free blocks for whole placements. harvest: the
  // largest idle fragments first, spanning the fewest nodes.
  const bool harvest = opts_.policy == "harvest";
  const NodeId whole = harvest ? kInvalidNode : BestFit(usable, run.vcpus);
  const std::map<NodeId, int> alloc =
      whole != kInvalidNode
          ? std::map<NodeId, int>{{whole, run.vcpus}}
          : FillFragments(usable, run.vcpus,
                          harvest ? SchedPolicy::kMinNodes : SchedPolicy::kMinFragmentation);
  if (alloc.empty()) return false;

  // Home = the largest slice (ties to the lowest node id).
  NodeId home = kInvalidNode;
  int home_slots = 0;
  for (const auto& [node, slots] : alloc) {
    if (slots > home_slots) {
      home = node;
      home_slots = slots;
    }
  }
  FV_CHECK_NE(home, kInvalidNode);

  // Reserve every slice against its ledger; the slots were placed against
  // the same live view, so the checked path must succeed.
  run.alloc.clear();
  run.alloc.emplace_back(home, alloc.at(home));
  run.lenders.clear();
  for (const auto& [node, slots] : alloc) {
    const bool ok = ledgers_[static_cast<size_t>(node)].Reserve(
        vm, static_cast<uint64_t>(slots) * run.mem_per_slot, slots);
    FV_CHECK(ok);
    if (node != home) {
      run.alloc.emplace_back(node, slots);
      run.lenders.push_back(node);
    }
  }
  run.span = static_cast<int>(run.alloc.size());

  // Stream runtime, written before the start notice so the home partition
  // reads it after the delivery barrier.
  run.home = home;
  run.rt.assign(static_cast<size_t>(run.vcpus), StreamRt{});
  for (int s = 0; s < run.vcpus; ++s) {
    StreamRt& st = run.rt[static_cast<size_t>(s)];
    st.rng = Rng(SplitMix64(opts_.trace.seed ^ (vm << 8) ^ static_cast<uint64_t>(s)));
    st.remaining = run.requests_per_stream;
  }
  run.live_streams = run.vcpus;

  // Every non-home slice is covered by a lease so the orchestrator can later
  // call it home (consolidation) through the lease protocol.
  run.leases.clear();
  for (const auto& [node, slots] : run.alloc) {
    if (node == home) continue;
    run.leases.push_back(leases_->Grant(node, home, LeaseKind::kMemory,
                                        static_cast<uint64_t>(slots), vm, Handback()));
  }

  run.status = VmStatus::kRunning;
  run.started = OrchNow();
  ++running_count_;
  if (run.alloc.size() == 1) {
    ++orch_counts_.placed_single;
  } else {
    ++orch_counts_.placed_aggregate;
  }
  SampleSeries();
  if (faulty_) Journal(kJrnAdmit, vm, 0);

  RpcLayer::CallOpts o;
  o.token = PackCtl(kOpStart, vm, 0);
  if (faulty_) {
    const NodeId me = orch_node_;
    o.on_fail = [this, home, me] {  // runs on the orchestrator's partition
      if (!RoleIntact(me, NodeLoop(me)->now()) || takeover_active_) return;
      if (believed_up_[static_cast<size_t>(home)]) DeclareNodeDead(home, /*record=*/true);
    };
  }
  rpc_->Notify(orch_node_, home, MsgKind::kVcpuMigration, kCtrlBytes, std::move(o));
  return true;
}

// Cross-VM reclamation: find a running tenant with a lender slice whose home
// node has since freed enough capacity to absorb it, and revoke that lease —
// consolidating tenant A onto fewer nodes so the freed lender can admit
// tenant B. One revoke in flight at a time; the handback resumes admission.
bool Marketplace::TryReclaim() {
  FV_CHECK(!reclaim_in_flight_);
  for (size_t i = 0; i < vms_.size(); ++i) {
    const VmRun& run = vms_[i];
    if (run.status != VmStatus::kRunning || run.leases.empty()) continue;
    for (const LeaseId id : run.leases) {
      const Lease* lease = leases_->Find(id);
      if (lease == nullptr || !lease->active) continue;
      if (faulty_ && (!believed_up_[static_cast<size_t>(lease->lender)] ||
                      !believed_up_[static_cast<size_t>(lease->borrower)])) {
        continue;  // a failure verdict is already in flight for this tenant
      }
      const int slots = static_cast<int>(lease->resource);
      const uint64_t bytes = static_cast<uint64_t>(slots) * run.mem_per_slot;
      const TenantLedger& home_ledger = ledgers_[static_cast<size_t>(lease->borrower)];
      if (home_ledger.free_vcpus() >= slots && home_ledger.free_mem() >= bytes) {
        reclaim_in_flight_ = true;
        pending_reclaim_lease_ = id;
        leases_->Revoke(id);
        return true;
      }
    }
  }
  return false;
}

void Marketplace::OnLeaseEvent(const Lease& lease, LeaseEvent event) {
  if (event == LeaseEvent::kLost) {
    RecoverLostLender(lease);
    return;
  }
  if (event != LeaseEvent::kRevoked) return;  // kReleased: voluntary, no-op
  const uint64_t vm = lease.vm;
  VmRun& run = vms_[vm - 1];
  // The handback only fires while the lease is live, and a completing or
  // failing VM retires its leases first — so the victim is still running.
  FV_CHECK(run.status == VmStatus::kRunning);
  const NodeId lender = lease.lender;
  const NodeId home = lease.borrower;
  const int slots = static_cast<int>(lease.resource);
  const uint64_t bytes = static_cast<uint64_t>(slots) * run.mem_per_slot;

  ledgers_[static_cast<size_t>(lender)].Release(vm, bytes, slots);
  const bool ok = ledgers_[static_cast<size_t>(home)].Reserve(vm, bytes, slots);
  FV_CHECK(ok);  // admissions were paused; completions only freed capacity

  for (auto it = run.alloc.begin(); it != run.alloc.end(); ++it) {
    if (it->first == lender) {
      run.alloc.erase(it);
      break;
    }
  }
  FV_CHECK(!run.alloc.empty() && run.alloc.front().first == home);
  run.alloc.front().second += slots;
  run.span = static_cast<int>(run.alloc.size());
  run.leases.erase(std::find(run.leases.begin(), run.leases.end(), lease.id));
  ++orch_counts_.reclaims;
  reclaim_in_flight_ = false;
  pending_reclaim_lease_ = kInvalidLease;
  SampleSeries();

  // Tell the home partition to stop routing requests at the ex-lender.
  RpcLayer::CallOpts o;
  o.token = PackCtl(kOpCallHome, vm, static_cast<uint64_t>(lender));
  rpc_->Notify(orch_node_, home, MsgKind::kVcpuMigration, kCtrlBytes, std::move(o));
  TryAdmitAll();
}

// A lease protocol leg gave up: tenant-aware surgical recovery. When the
// *lender* died, only this tenant's slice moves — re-placed onto a survivor
// when one has room (lender replacement) or dropped so the VM degrades to
// its remaining slices; co-tenants of the dead lender recover through their
// own leases, and no other tenant is touched. When the give-up was really
// the *borrower* (the VM's home) dying, the home-crash path fails exactly
// that VM instead.
void Marketplace::RecoverLostLender(const Lease& lease) {
  const uint64_t vm = lease.vm;
  VmRun& run = vms_[vm - 1];
  if (lease.id == pending_reclaim_lease_) {
    reclaim_in_flight_ = false;
    pending_reclaim_lease_ = kInvalidLease;
  }
  auto lit = std::find(run.leases.begin(), run.leases.end(), lease.id);
  if (lit != run.leases.end()) run.leases.erase(lit);
  if (run.status != VmStatus::kRunning) return;

  const TimeNs now = OrchNow();
  const NodeId home = run.home;
  if (!NodeUpAt(home, now)) {
    // The failed leg was home-bound: the borrower died, not the lender.
    if (believed_up_[static_cast<size_t>(home)]) DeclareNodeDead(home, /*record=*/true);
    return;
  }

  const NodeId lender = lease.lender;
  const int slots = static_cast<int>(lease.resource);
  const uint64_t bytes = static_cast<uint64_t>(slots) * run.mem_per_slot;
  ledgers_[static_cast<size_t>(lender)].Release(vm, bytes, slots);
  for (auto it = run.alloc.begin(); it != run.alloc.end(); ++it) {
    if (it->first == lender) {
      run.alloc.erase(it);
      break;
    }
  }

  // Lowest surviving node with room that is not already part of the VM.
  NodeId target = kInvalidNode;
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    if (!believed_up_[static_cast<size_t>(n)] || !NodeUpAt(n, now)) continue;
    bool member = n == home;
    for (const auto& [an, as] : run.alloc) member = member || an == n;
    if (member) continue;
    const TenantLedger& l = ledgers_[static_cast<size_t>(n)];
    if (l.free_vcpus() >= slots && l.free_mem() >= bytes) {
      target = n;
      break;
    }
  }
  if (target != kInvalidNode) {
    const bool ok = ledgers_[static_cast<size_t>(target)].Reserve(vm, bytes, slots);
    FV_CHECK(ok);
    run.alloc.emplace_back(target, slots);
    run.leases.push_back(leases_->Grant(target, home, LeaseKind::kMemory,
                                        static_cast<uint64_t>(slots), vm, Handback()));
    ++fault_counts_.lender_replacements;
    RpcLayer::CallOpts o;
    o.token = PackWide(kOpReplaceLender, vm, static_cast<uint64_t>(lender),
                       static_cast<uint64_t>(target));
    rpc_->Notify(orch_node_, home, MsgKind::kVcpuMigration, kCtrlBytes, std::move(o));
  } else {
    // Graceful degradation: the VM keeps running on its surviving slices.
    ++fault_counts_.lender_degradations;
    RpcLayer::CallOpts o;
    o.token = PackCtl(kOpDropLender, vm, static_cast<uint64_t>(lender));
    rpc_->Notify(orch_node_, home, MsgKind::kVcpuMigration, kCtrlBytes, std::move(o));
  }
  run.span = static_cast<int>(run.alloc.size());
  const TimeNs crash_t = plan_->LastCrashBefore(lender, now);
  if (crash_t >= 0) recovery_ns_.Record(static_cast<double>(now - crash_t));
  SampleSeries();
  if (believed_up_[static_cast<size_t>(lender)] && !NodeUpAt(lender, now)) {
    DeclareNodeDead(lender, /*record=*/true);
  }
  TryAdmitAll();
}

void Marketplace::OnVmDone(uint64_t vm) {
  VmRun& run = vms_[vm - 1];
  if (faulty_) {
    if (takeover_active_) {
      // The interrogation decides terminal states; replay afterwards.
      deferred_dones_.push_back(vm);
      return;
    }
    if (run.status != VmStatus::kRunning) {
      ++fault_counts_.late_dones;  // completion raced a failure verdict (or a dup)
      return;
    }
  }
  FV_CHECK(run.status == VmStatus::kRunning);
  run.status = VmStatus::kDone;
  run.finished = OrchNow();
  ++orch_counts_.vms_completed;
  --running_count_;
  if (faulty_) Journal(kJrnDone, vm, 0);
  for (const LeaseId id : run.leases) {
    if (id == pending_reclaim_lease_) {
      // The victim finished before the in-flight revoke resolved; the ack
      // leg's Terminate will find the book entry gone and no-op.
      reclaim_in_flight_ = false;
      pending_reclaim_lease_ = kInvalidLease;
    }
    const Lease* lease = leases_->Find(id);
    if (lease != nullptr && lease->active) {
      leases_->Release(id);
    } else {
      // Grant ack still in flight (tiny VMs can finish inside one RTT).
      leases_->Drop(id);
    }
  }
  run.leases.clear();
  for (const auto& [node, slots] : run.alloc) {
    ledgers_[static_cast<size_t>(node)].ReleaseAll(vm);
  }
  SampleSeries();
  TryAdmitAll();
}

void Marketplace::SampleSeries() {
  int used_nodes = 0;
  int committed = 0;
  int stranded = 0;
  for (const TenantLedger& l : ledgers_) {
    if (l.num_tenants() == 0) continue;
    ++used_nodes;
    committed += l.committed_vcpus();
    stranded += l.free_vcpus();
  }
  const double consol =
      used_nodes == 0 ? 0.0
                      : static_cast<double>(committed) /
                            static_cast<double>(used_nodes * opts_.vcpus_per_node);
  const TimeNs t = OrchNow();
  consolidation_.Append(t, consol);
  stranded_.Append(t, static_cast<double>(stranded));
}

// The live orchestrator turns one node's silence into a death verdict,
// exactly once per believed-up -> believed-down transition: every VM homed
// there fails (its co-tenants elsewhere are untouched), every lease the dead
// node lent triggers per-tenant lender recovery, and its ledger shares flow
// back for re-admission.
void Marketplace::DeclareNodeDead(NodeId n, bool record) {
  if (takeover_active_ || !believed_up_[static_cast<size_t>(n)]) return;
  believed_up_[static_cast<size_t>(n)] = 0;
  ++fault_counts_.nodes_died;
  const TimeNs now = OrchNow();
  if (record) {
    const TimeNs crash_t = plan_->LastCrashBefore(n, now);
    if (crash_t >= 0) detection_ns_.Record(static_cast<double>(now - crash_t));
  }
  Journal(kJrnDead, 0, static_cast<uint64_t>(n));
  for (size_t i = 0; i < vms_.size(); ++i) {
    if (vms_[i].status == VmStatus::kRunning && vms_[i].home == n) {
      FailVm(i + 1, VmFailReason::kHomeCrash, now);
    }
  }
  // Remaining book entries touching n have n as lender (home-crash cleanup
  // above dropped the dead node's borrowed leases); each kLost handback runs
  // the surgical per-tenant recovery.
  leases_->OnNodeFailure(n);
  if (n == successor_) {
    PickSuccessor();
    ResyncShadow();
  }
  TryAdmitAll();
}

void Marketplace::FailVm(uint64_t vm, VmFailReason reason, TimeNs now) {
  VmRun& run = vms_[vm - 1];
  FV_CHECK(run.status == VmStatus::kRunning);
  run.status = VmStatus::kFailed;
  run.fail_reason = static_cast<uint8_t>(reason);
  run.finished = now;
  ++fault_counts_.vms_failed;
  --running_count_;
  for (const LeaseId id : run.leases) {
    if (id == pending_reclaim_lease_) {
      reclaim_in_flight_ = false;
      pending_reclaim_lease_ = kInvalidLease;
    }
    leases_->Drop(id);
  }
  run.leases.clear();
  for (const auto& [node, slots] : run.alloc) {
    ledgers_[static_cast<size_t>(node)].ReleaseAll(vm);
  }
  Journal(kJrnFail, vm, static_cast<uint64_t>(run.fail_reason));
  SampleSeries();
}

// --- Orchestrator failover: journal replication, heartbeats, takeover ---

void Marketplace::Journal(uint64_t op, uint64_t vm, uint64_t arg) {
  if (successor_ == kInvalidNode) return;
  ++fault_counts_.journal_records;
  RpcLayer::CallOpts o;
  o.token = PackCtl(op, vm, arg);
  const NodeId me = orch_node_;
  const NodeId s = successor_;
  o.on_fail = [this, me, s] {
    if (!RoleIntact(me, NodeLoop(me)->now()) || takeover_active_) return;
    if (believed_up_[static_cast<size_t>(s)]) DeclareNodeDead(s, /*record=*/true);
  };
  rpc_->Notify(me, s, MsgKind::kCheckpointData, kJournalBytes, std::move(o));
}

void Marketplace::PickSuccessor() {
  successor_ = kInvalidNode;
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    if (n != orch_node_ && believed_up_[static_cast<size_t>(n)]) {
      successor_ = n;
      return;
    }
  }
}

// Ships the successor a full picture: Hello (re-anchors the detector and
// clears the shadow), one record per VM already terminal or running, one per
// believed-dead node. Idle orchestrators skip the sync — an armed monitor
// with no future beats would only fire a spurious takeover.
void Marketplace::ResyncShadow() {
  if (!faulty_ || successor_ == kInvalidNode || Outstanding() == 0) return;
  Journal(kJrnHello, 0, static_cast<uint64_t>(orch_node_));
  for (size_t i = 0; i < vms_.size(); ++i) {
    switch (vms_[i].status) {
      case VmStatus::kRunning: Journal(kJrnAdmit, i + 1, 0); break;
      case VmStatus::kDone: Journal(kJrnDone, i + 1, 0); break;
      case VmStatus::kFailed: Journal(kJrnFail, i + 1, vms_[i].fail_reason); break;
      default: break;
    }
  }
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    if (!believed_up_[static_cast<size_t>(n)]) Journal(kJrnDead, 0, static_cast<uint64_t>(n));
  }
}

void Marketplace::EnsureFailoverActive(NodeId me) {
  if (!faulty_ || successor_ == kInvalidNode || Outstanding() == 0) return;
  if (!beats_active_) {
    beats_active_ = true;
    NodeLoop(me)->ScheduleAfter(opts_.failover.heartbeat_ns, [this, me] { BeatChain(me); });
  }
  if (!probes_active_) {
    probes_active_ = true;
    NodeLoop(me)->ScheduleAfter(opts_.failover.probe_interval_ns, [this, me] { ProbeChain(me); });
  }
}

void Marketplace::BeatChain(NodeId me) {
  if (!RoleIntact(me, NodeLoop(me)->now())) return;  // crashed reign: chain dies silently
  if (successor_ == kInvalidNode) {
    beats_active_ = false;
    return;
  }
  if (Outstanding() == 0) {
    // Quiesce precedes every wave boundary: the successor's monitor disarms
    // before the engine can drain, so resumed and uninterrupted runs place
    // the same events either side of the boundary.
    beats_active_ = false;
    Journal(kJrnQuiesce, 0, 0);
    return;
  }
  rpc_->Datagram(me, successor_, MsgKind::kControl, kBeatBytes, nullptr, 0,
                 PackCtl(kOpBeat, 0, 0));
  NodeLoop(me)->ScheduleAfter(opts_.failover.heartbeat_ns, [this, me] { BeatChain(me); });
}

// The reliable channel's give-up (max_attempts over the backoff ceiling) IS
// the failure detector for everyone but the orchestrator itself: a probe
// that exhausts its budget against a silent peer declares it dead.
void Marketplace::ProbeChain(NodeId me) {
  if (!RoleIntact(me, NodeLoop(me)->now())) return;
  if (Outstanding() == 0) {
    probes_active_ = false;
    return;
  }
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    if (n == me || !believed_up_[static_cast<size_t>(n)]) continue;
    RpcLayer::CallOpts o;
    o.token = PackCtl(kOpPing, 0, 0);
    o.on_fail = [this, me, n] {
      if (!RoleIntact(me, NodeLoop(me)->now()) || takeover_active_) return;
      if (believed_up_[static_cast<size_t>(n)]) DeclareNodeDead(n, /*record=*/true);
    };
    rpc_->Notify(me, n, MsgKind::kVcpuMigration, kCtrlBytes, std::move(o));
  }
  NodeLoop(me)->ScheduleAfter(opts_.failover.probe_interval_ns, [this, me] { ProbeChain(me); });
}

// Successor side: every journal record lands here (reliable, but FIFO does
// not survive drop+retransmit, so the shadow tolerates reorder — divergence
// is measured at takeover, not trusted blindly).
void Marketplace::HandleJournal(const RpcLayer::Inbound& in) {
  NodeRt& me = nodes_[static_cast<size_t>(in.dst)];
  const uint64_t op = CtlOp(in.token);
  const TimeNs now = NodeLoop(in.dst)->now();
  switch (op) {
    case kJrnHello: {
      me.watching = in.src;
      me.monitor = PhiAccrualEstimator(opts_.failover.heartbeat_ns, opts_.failover.phi_window);
      me.monitor.Reset(now);
      me.monitor_epoch = now;
      me.monitor_armed = true;
      me.shadow.assign(vms_.size(), static_cast<uint8_t>(VmStatus::kPending));
      me.shadow_up.assign(static_cast<size_t>(opts_.num_nodes), 1);
      if (!me.monitor_check_running) {
        me.monitor_check_running = true;
        const NodeId n = in.dst;
        NodeLoop(n)->ScheduleAfter(opts_.failover.heartbeat_ns, [this, n] { MonitorCheck(n); });
      }
      break;
    }
    case kJrnAdmit:
      if (!me.shadow.empty()) me.shadow[CtlVm(in.token) - 1] = static_cast<uint8_t>(VmStatus::kRunning);
      break;
    case kJrnDone:
      if (!me.shadow.empty()) me.shadow[CtlVm(in.token) - 1] = static_cast<uint8_t>(VmStatus::kDone);
      break;
    case kJrnFail:
      if (!me.shadow.empty()) me.shadow[CtlVm(in.token) - 1] = static_cast<uint8_t>(VmStatus::kFailed);
      break;
    case kJrnDead:
      if (!me.shadow_up.empty()) me.shadow_up[CtlArg(in.token)] = 0;
      break;
    case kJrnQuiesce:
      me.monitor_armed = false;
      break;
    default:
      FV_CHECK(false);
  }
}

// Self-rescheduling detector check. Terminates unconditionally: phi grows
// without bound in silence, and the first phi >= threshold always disarms
// the chain — taking over only when the oracle confirms a real crash
// (a partitioned-but-alive orchestrator keeps the role; split-brain never
// happens, at the price of riding out the partition).
void Marketplace::MonitorCheck(NodeId me) {
  NodeRt& nr = nodes_[static_cast<size_t>(me)];
  const TimeNs now = NodeLoop(me)->now();
  if (!NodeUpAt(me, now) || plan_->LastCrashBefore(me, now) >= nr.monitor_epoch) {
    // This successor incarnation died (the state is stale after a restart).
    nr.monitor_armed = false;
    nr.monitor_check_running = false;
    return;
  }
  if (!nr.monitor_armed) {
    nr.monitor_check_running = false;
    return;
  }
  if (nr.monitor.Phi(now) >= opts_.failover.fail_phi) {
    nr.monitor_armed = false;
    nr.monitor_check_running = false;
    if (!plan_->NodeUp(nr.watching, now)) {
      const TimeNs crash_t = plan_->LastCrashBefore(nr.watching, now);
      detection_ns_.Record(static_cast<double>(now - crash_t));
      // The dead orchestrator's in-flight sends all fail (on its partition)
      // within the retry horizon; only then is its state frozen and safe to
      // reconstruct from.
      const TimeNs epoch = nr.monitor_epoch;
      const TimeNs at = std::max(now + 1, crash_t + SettleDelay());
      NodeLoop(me)->ScheduleAt(at, [this, me, crash_t, epoch] {
        StartTakeover(me, crash_t, epoch);
      });
    }
    return;
  }
  NodeLoop(me)->ScheduleAfter(opts_.failover.heartbeat_ns, [this, me] { MonitorCheck(me); });
}

void Marketplace::StartTakeover(NodeId me, TimeNs crash_t, TimeNs epoch) {
  const TimeNs now = NodeLoop(me)->now();
  if (!NodeUpAt(me, now) || plan_->LastCrashBefore(me, now) >= epoch) return;
  NodeRt& nr = nodes_[static_cast<size_t>(me)];
  ++fault_counts_.failovers;
  nr.orch_since = now;
  orch_node_ = me;
  nr.orch_view = me;
  takeover_active_ = true;
  takeover_crash_t_ = crash_t;
  successor_ = kInvalidNode;
  beats_active_ = probes_active_ = false;

  // Score the journal against the dead orchestrator's frozen state (the
  // metrics-store exemption: past the settle horizon the fields cannot
  // change, so reading them cross-partition is deterministic), then adopt
  // the frozen state as ground truth.
  for (size_t i = 0; i < vms_.size(); ++i) {
    const uint8_t truth = static_cast<uint8_t>(vms_[i].status);
    if (i < nr.shadow.size() && nr.shadow[i] != truth) ++fault_counts_.shadow_divergence;
  }
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    const uint8_t truth = believed_up_[static_cast<size_t>(n)];
    if (static_cast<size_t>(n) < nr.shadow_up.size() && nr.shadow_up[static_cast<size_t>(n)] != truth) {
      ++fault_counts_.shadow_divergence;
    }
  }
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    if (believed_up_[static_cast<size_t>(n)] && !plan_->NodeUp(n, now)) {
      believed_up_[static_cast<size_t>(n)] = 0;
      ++fault_counts_.nodes_died;
    }
  }

  leases_->FailoverReset(me);
  takeover_reports_.clear();
  deferred_dones_.clear();
  takeover_expect_.assign(static_cast<size_t>(opts_.num_nodes), -3);
  takeover_have_.assign(static_cast<size_t>(opts_.num_nodes), 0);

  // Interrogate every believed-up peer for its live homed VMs. Completion is
  // counted (expected vs received), never inferred from arrival order —
  // per-link FIFO does not survive drop + retransmit.
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    if (n == me || !believed_up_[static_cast<size_t>(n)]) continue;
    takeover_expect_[static_cast<size_t>(n)] = -2;
    RpcLayer::CallOpts nops;
    nops.token = PackCtl(kOpNewOrch, 0, static_cast<uint64_t>(me));
    rpc_->Notify(me, n, MsgKind::kVcpuMigration, kCtrlBytes, std::move(nops));
    RpcLayer::CallOpts q;
    q.token = PackCtl(kOpQuery, 0, 0);
    q.on_fail = [this, me, n] {
      if (!takeover_active_ || orch_node_ != me) return;
      if (believed_up_[static_cast<size_t>(n)]) {
        believed_up_[static_cast<size_t>(n)] = 0;
        ++fault_counts_.nodes_died;
      }
      takeover_expect_[static_cast<size_t>(n)] = -1;
      MaybeFinishTakeover(me);
    };
    rpc_->Notify(me, n, MsgKind::kVcpuMigration, kCtrlBytes, std::move(q));
  }
  // The new orchestrator reports its own homed VMs directly.
  for (const uint64_t vm : nr.homed_vms) {
    const VmRun& run = vms_[vm - 1];
    if (!StreamLive(run, now)) continue;
    takeover_reports_.emplace_back(vm, run.home_done ? 1 : 0);
  }
  MaybeFinishTakeover(me);
}

void Marketplace::HandleQuery(const RpcLayer::Inbound& in) {
  const NodeId n = in.dst;
  const TimeNs now = NodeLoop(n)->now();
  uint64_t count = 0;
  for (const uint64_t vm : nodes_[static_cast<size_t>(n)].homed_vms) {
    const VmRun& run = vms_[vm - 1];
    if (!StreamLive(run, now)) continue;  // a restarted home disowns pre-crash VMs
    RpcLayer::CallOpts o;
    o.token = PackCtl(kOpQVm, vm, run.home_done ? 1 : 0);
    rpc_->Notify(n, in.src, MsgKind::kControl, kCtrlBytes, std::move(o));
    ++count;
  }
  RpcLayer::CallOpts t;
  t.token = PackCtl(kOpQueryDone, 0, count);
  rpc_->Notify(n, in.src, MsgKind::kControl, kCtrlBytes, std::move(t));
}

void Marketplace::MaybeFinishTakeover(NodeId me) {
  if (!takeover_active_) return;
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    const int32_t expect = takeover_expect_[static_cast<size_t>(n)];
    if (expect == -2) return;  // trailer still outstanding
    if (expect >= 0 && takeover_have_[static_cast<size_t>(n)] < expect) return;
  }
  FinishTakeover(me);
}

// Reconciliation: rebuild ledgers and the lease book from the frozen VM
// table plus the interrogation reports, fail VMs whose home died with the
// old orchestrator's reign, re-place or degrade slices lost on dead lenders,
// and resume the wave.
void Marketplace::FinishTakeover(NodeId me) {
  takeover_active_ = false;
  const TimeNs now = NodeLoop(me)->now();
  for (size_t n = 0; n < ledgers_.size(); ++n) {
    ledgers_[n] = TenantLedger();
    ledgers_[n].Init(opts_.mem_per_node, opts_.vcpus_per_node);
  }
  reclaim_in_flight_ = false;
  pending_reclaim_lease_ = kInvalidLease;
  running_count_ = 0;
  arrivals_pending_ = 0;

  std::vector<int8_t> rep(vms_.size(), -1);
  for (const std::pair<uint64_t, uint8_t>& r : takeover_reports_) {
    rep[r.first - 1] = static_cast<int8_t>(r.second);
  }

  for (size_t i = 0; i < vms_.size(); ++i) {
    VmRun& run = vms_[i];
    const uint64_t vm = i + 1;
    if (run.status != VmStatus::kRunning) continue;
    run.leases.clear();  // the old book died with its home; ids are void
    if (!believed_up_[static_cast<size_t>(run.home)]) {
      run.status = VmStatus::kFailed;
      run.fail_reason = static_cast<uint8_t>(VmFailReason::kHomeCrash);
      run.finished = now;
      ++fault_counts_.vms_failed;
      continue;
    }
    if (rep[i] == 1) {
      // Finished while the orchestrator seat was empty; count it now.
      run.status = VmStatus::kDone;
      run.finished = now;
      ++orch_counts_.vms_completed;
      continue;
    }
    // Still running: keep surviving slices, recover the rest per tenant.
    std::vector<std::pair<NodeId, int>> kept;
    std::vector<std::pair<NodeId, int>> lost;
    for (const std::pair<NodeId, int>& slice : run.alloc) {
      if (believed_up_[static_cast<size_t>(slice.first)] && plan_->NodeUp(slice.first, now)) {
        kept.push_back(slice);
      } else {
        lost.push_back(slice);
      }
    }
    FV_CHECK(!kept.empty() && kept.front().first == run.home);
    for (const std::pair<NodeId, int>& slice : kept) {
      const bool ok = ledgers_[static_cast<size_t>(slice.first)].Reserve(
          vm, static_cast<uint64_t>(slice.second) * run.mem_per_slot, slice.second);
      FV_CHECK(ok);
    }
    for (const std::pair<NodeId, int>& slice : lost) {
      const NodeId dead = slice.first;
      const int slots = slice.second;
      const uint64_t bytes = static_cast<uint64_t>(slots) * run.mem_per_slot;
      NodeId target = kInvalidNode;
      for (NodeId n = 0; n < opts_.num_nodes; ++n) {
        if (!believed_up_[static_cast<size_t>(n)] || !plan_->NodeUp(n, now)) continue;
        bool member = false;
        for (const auto& [kn, ks] : kept) member = member || kn == n;
        if (member) continue;
        const TenantLedger& l = ledgers_[static_cast<size_t>(n)];
        if (l.free_vcpus() >= slots && l.free_mem() >= bytes) {
          target = n;
          break;
        }
      }
      if (target != kInvalidNode) {
        const bool ok = ledgers_[static_cast<size_t>(target)].Reserve(vm, bytes, slots);
        FV_CHECK(ok);
        kept.emplace_back(target, slots);
        ++fault_counts_.lender_replacements;
        RpcLayer::CallOpts o;
        o.token = PackWide(kOpReplaceLender, vm, static_cast<uint64_t>(dead),
                           static_cast<uint64_t>(target));
        rpc_->Notify(me, run.home, MsgKind::kVcpuMigration, kCtrlBytes, std::move(o));
      } else {
        ++fault_counts_.lender_degradations;
        RpcLayer::CallOpts o;
        o.token = PackCtl(kOpDropLender, vm, static_cast<uint64_t>(dead));
        rpc_->Notify(me, run.home, MsgKind::kVcpuMigration, kCtrlBytes, std::move(o));
      }
    }
    if (!lost.empty() && takeover_crash_t_ >= 0) {
      recovery_ns_.Record(static_cast<double>(now - takeover_crash_t_));
    }
    run.alloc = std::move(kept);
    run.span = static_cast<int>(run.alloc.size());
    // Fresh leases in the rebuilt book for every surviving non-home slice.
    for (const std::pair<NodeId, int>& slice : run.alloc) {
      if (slice.first == run.home) continue;
      run.leases.push_back(leases_->Grant(slice.first, run.home, LeaseKind::kMemory,
                                          static_cast<uint64_t>(slice.second), vm, Handback()));
    }
    ++running_count_;
  }

  // Arrivals gated away on the dead orchestrator's partition replay here.
  for (const std::pair<TimeNs, uint64_t>& ws : wave_sched_) {
    const uint64_t vmid = ws.second;
    if (vms_[vmid - 1].status != VmStatus::kPending) continue;
    const TimeNs at = std::max(ws.first, now + 1);
    ++arrivals_pending_;
    NodeLoop(me)->ScheduleAt(at, [this, vmid, me] {
      if (!RoleIntact(me, NodeLoop(me)->now())) return;
      if (vms_[vmid - 1].status != VmStatus::kPending) return;
      --arrivals_pending_;
      OnArrival(vmid);
    });
  }

  PickSuccessor();
  ResyncShadow();
  const std::vector<uint64_t> dones = std::move(deferred_dones_);
  deferred_dones_.clear();
  for (const uint64_t vm : dones) OnVmDone(vm);
  SampleSeries();
  TryAdmitAll();
  EnsureFailoverActive(me);
}

// Wave-start housekeeping on the live orchestrator's partition: sync the
// liveness view with the oracle (nodes already crashed at wave start get no
// work; restarted nodes rejoin the pool), pick a successor, resync its
// shadow, arm beats + probes.
void Marketplace::WaveKickoff(NodeId me) {
  const TimeNs now = NodeLoop(me)->now();
  for (NodeId n = 0; n < opts_.num_nodes; ++n) {
    const bool up = plan_->NodeUp(n, now);
    if (!up && believed_up_[static_cast<size_t>(n)]) {
      DeclareNodeDead(n, /*record=*/false);
    } else if (up && !believed_up_[static_cast<size_t>(n)]) {
      believed_up_[static_cast<size_t>(n)] = 1;  // rejoin with a fresh ledger
    }
  }
  PickSuccessor();
  ResyncShadow();
  EnsureFailoverActive(me);
  TryAdmitAll();
}

// --- Control-plane dispatch ---

void Marketplace::OnControl(const RpcLayer::Inbound& in) {
  if (!faulty_) {
    FV_CHECK_EQ(CtlOp(in.token), kOpVmDone);
    OnVmDone(CtlVm(in.token));
    return;
  }
  const uint64_t op = CtlOp(in.token);
  if (op == kOpBeat) {
    NodeRt& nr = nodes_[static_cast<size_t>(in.dst)];
    if (nr.monitor_armed && nr.watching == in.src) {
      nr.monitor.Observe(NodeLoop(in.dst)->now());
    }
    return;
  }
  if (!RoleIntact(in.dst, NodeLoop(in.dst)->now())) return;
  switch (op) {
    case kOpVmDone:
      OnVmDone(CtlVm(in.token));
      break;
    case kOpQVm:
      if (takeover_active_) {
        takeover_reports_.emplace_back(CtlVm(in.token), static_cast<uint8_t>(CtlArg(in.token)));
        ++takeover_have_[static_cast<size_t>(in.src)];
        MaybeFinishTakeover(in.dst);
      } else if (CtlArg(in.token) == 1) {
        OnVmDone(CtlVm(in.token));  // straggler report; tolerant path counts it
      }
      break;
    case kOpQueryDone:
      if (takeover_active_ && takeover_expect_[static_cast<size_t>(in.src)] == -2) {
        takeover_expect_[static_cast<size_t>(in.src)] = static_cast<int32_t>(CtlArg(in.token));
        MaybeFinishTakeover(in.dst);
      }
      break;
    default:
      break;  // late/duplicate control traffic from a previous reign
  }
}

void Marketplace::OnVcpuCtl(const RpcLayer::Inbound& in) {
  if (!faulty_) {
    if (CtlOp(in.token) == kOpStart) {
      OnVmStart(in);
    } else {
      FV_CHECK_EQ(CtlOp(in.token), kOpCallHome);
      OnCallHome(CtlVm(in.token), static_cast<NodeId>(CtlArg(in.token)));
    }
    return;
  }
  const uint64_t op = CtlOp(in.token);
  const TimeNs now = NodeLoop(in.dst)->now();
  switch (op) {
    case kOpStart:
      OnVmStart(in);
      break;
    case kOpCallHome: {
      const uint64_t vm = CtlVm(in.token);
      if (!StreamLive(vms_[vm - 1], now)) return;
      OnCallHome(vm, static_cast<NodeId>(CtlArg(in.token)));
      break;
    }
    case kOpNewOrch:
      nodes_[static_cast<size_t>(in.dst)].orch_view = in.src;
      break;
    case kOpQuery:
      HandleQuery(in);
      break;
    case kOpDropLender: {
      const uint64_t vm = CtlVm(in.token);
      VmRun& run = vms_[vm - 1];
      if (!StreamLive(run, now)) return;
      auto it = std::find(run.lenders.begin(), run.lenders.end(),
                          static_cast<NodeId>(CtlArg(in.token)));
      if (it != run.lenders.end()) run.lenders.erase(it);
      break;
    }
    case kOpReplaceLender: {
      const uint64_t vm = WideVm(in.token);
      VmRun& run = vms_[vm - 1];
      if (!StreamLive(run, now)) return;
      const NodeId dead = static_cast<NodeId>(WideA(in.token));
      const NodeId fresh = static_cast<NodeId>(WideB(in.token));
      auto it = std::find(run.lenders.begin(), run.lenders.end(), dead);
      if (it != run.lenders.end()) run.lenders.erase(it);
      if (std::find(run.lenders.begin(), run.lenders.end(), fresh) == run.lenders.end()) {
        run.lenders.push_back(fresh);
      }
      break;
    }
    case kOpPing:
      break;  // delivery alone is the liveness answer
    default:
      FV_CHECK(false);
  }
}

// --- Request streams (each VM's stream state runs on its home node's
// partition) ---

void Marketplace::OnVmStart(const RpcLayer::Inbound& in) {
  const uint64_t vm = CtlVm(in.token);
  VmRun& run = vms_[vm - 1];
  if (faulty_) {
    NodeRt& nr = nodes_[static_cast<size_t>(in.dst)];
    nr.orch_view = in.src;  // done notices go to whoever admitted us
    run.home_epoch = NodeLoop(in.dst)->now();
    run.home_done = false;
    run.home_finished = 0;
    run.done_attempts = 0;
    auto pos = std::lower_bound(nr.homed_vms.begin(), nr.homed_vms.end(), vm);
    if (pos == nr.homed_vms.end() || *pos != vm) nr.homed_vms.insert(pos, vm);
  }
  for (int s = 0; s < run.vcpus; ++s) {
    // Historical stagger: stream starts must not be one giant tie.
    const TimeNs start = Nanos(1 + static_cast<int64_t>((vm * 13 + static_cast<uint64_t>(s) * 7) % 97));
    NodeLoop(run.home)->ScheduleAfter(start, [this, vm, s] { DoRequest(vm, s); });
  }
}

void Marketplace::OnCallHome(uint64_t vm, NodeId lender) {
  VmRun& run = vms_[vm - 1];
  auto it = std::find(run.lenders.begin(), run.lenders.end(), lender);
  if (faulty_) {
    // Recovery may already have dropped/replaced this lender.
    if (it == run.lenders.end()) return;
  } else {
    FV_CHECK(it != run.lenders.end());
  }
  run.lenders.erase(it);
  ++nodes_[static_cast<size_t>(run.home)].c.reclaim_moves;
}

void Marketplace::DoRequest(uint64_t vm, int stream) {
  VmRun& run = vms_[vm - 1];
  const NodeId home = run.home;
  if (faulty_ && !StreamLive(run, NodeLoop(home)->now())) return;  // zombie timer
  StreamRt& st = run.rt[static_cast<size_t>(stream)];
  FV_DCHECK(st.remaining > 0);
  st.awaiting = true;
  st.issue = NodeLoop(home)->now();
  const bool remote = !run.lenders.empty() && st.rng.Chance(run.remote_frac);
  if (!remote) {
    ++nodes_[static_cast<size_t>(home)].c.local_requests;
    const TimeNs svc = opts_.service_ns + Nanos(static_cast<int64_t>(st.rng.UniformInt(0, 1023)));
    NodeLoop(home)->ScheduleAfter(svc, [this, vm, stream] { Complete(vm, stream); });
    return;
  }
  ++nodes_[static_cast<size_t>(home)].c.remote_requests;
  const size_t pick = static_cast<size_t>(st.rng.UniformInt(0, static_cast<int>(run.lenders.size()) - 1));
  const NodeId lender = run.lenders[pick];
  if (faulty_ && !plan_->NodeUp(lender, NodeLoop(home)->now())) {
    // Fast-fail against a known-dead lender: same rng draws as the wire
    // path, but no 8-attempt retry storm per request while recovery is
    // still re-placing the slice.
    ++nodes_[static_cast<size_t>(home)].c.request_failures;
    NodeLoop(home)->ScheduleAfter(opts_.service_ns, [this, vm, stream] { Complete(vm, stream); });
    return;
  }
  RpcLayer::CallOpts o;
  o.token = PackCtl(0, vm, static_cast<uint64_t>(stream));
  // One-sided read: the borrower pulls the page straight out of the lender's
  // registered slice — no lender CPU service, but the verb setup is paid on
  // the borrower before the read hits the wire.
  o.receiver_delay = opts_.rdma_read ? 0 : opts_.page_service_ns;
  o.on_fail = [this, vm, stream, home] {  // runs on home's partition
    ++nodes_[static_cast<size_t>(home)].c.request_failures;
    Complete(vm, stream);
  };
  if (opts_.rdma_read) {
    const TimeNs setup = fabric_->link_params(home, lender).one_sided_setup;
    NodeLoop(home)->ScheduleAfter(setup, [this, home, lender, o = std::move(o)]() mutable {
      rpc_->Notify(home, lender, MsgKind::kDsmReadReq, kReqBytes, std::move(o));
    });
    return;
  }
  rpc_->Notify(home, lender, MsgKind::kDsmReadReq, kReqBytes, std::move(o));
}

void Marketplace::OnPageRequest(const RpcLayer::Inbound& in) {
  if (!NodeUpAt(in.dst, NodeLoop(in.dst)->now())) return;  // dead lender serves nothing
  ++nodes_[static_cast<size_t>(in.dst)].c.served_pages;
  RpcLayer::CallOpts o;
  o.token = in.token;
  // The marketplace has no per-page identity (requests are synthetic), so the
  // compressibility class is keyed on the request token: deterministic, and
  // spread across the four classes like real pages would be.
  const uint64_t bytes =
      opts_.compress
          ? kReqBytes + CompressedPayloadBytes(opts_.compress_seed, in.token, kPageBytes - kReqBytes)
          : kPageBytes;
  rpc_->Notify(in.dst, in.src, MsgKind::kDsmPageData, bytes, std::move(o));
}

void Marketplace::OnPageReply(const RpcLayer::Inbound& in) {
  Complete(CtlVm(in.token), static_cast<int>(CtlArg(in.token)));
}

void Marketplace::Complete(uint64_t vm, int stream) {
  VmRun& run = vms_[vm - 1];
  const NodeId home = run.home;
  if (faulty_ && !StreamLive(run, NodeLoop(home)->now())) return;
  StreamRt& st = run.rt[static_cast<size_t>(stream)];
  // Under ack loss a request can both deliver (the reply arrives) and fail
  // (every ack dropped, the sender gives up): exactly one completion counts.
  if (!st.awaiting) return;
  st.awaiting = false;
  nodes_[static_cast<size_t>(home)].latency.Record(
      static_cast<double>(NodeLoop(home)->now() - st.issue));
  if (--st.remaining > 0) {
    NodeLoop(home)->ScheduleAfter(opts_.think_ns, [this, vm, stream] { DoRequest(vm, stream); });
    return;
  }
  if (--run.live_streams == 0) {
    run.home_done = true;
    run.home_finished = NodeLoop(home)->now();
    SendVmDone(vm);
  }
}

void Marketplace::SendVmDone(uint64_t vm) {
  VmRun& run = vms_[vm - 1];
  const NodeId home = run.home;
  RpcLayer::CallOpts o;
  o.token = PackCtl(kOpVmDone, vm, 0);
  if (faulty_) {
    o.on_fail = [this, vm] { RetryVmDone(vm); };
  }
  rpc_->Notify(home, nodes_[static_cast<size_t>(home)].orch_view, MsgKind::kControl, kCtrlBytes,
               std::move(o));
}

// The orchestrator (or its address) may be dead; keep redirecting the done
// notice at whatever orch_view currently says until it lands or the budget
// runs out. A takeover's kOpNewOrch updates orch_view between attempts.
void Marketplace::RetryVmDone(uint64_t vm) {
  VmRun& run = vms_[vm - 1];
  const NodeId home = run.home;
  if (!StreamLive(run, NodeLoop(home)->now())) return;
  if (++run.done_attempts > opts_.failover.done_retry_limit) return;
  NodeLoop(home)->ScheduleAfter(opts_.failover.done_retry_ns, [this, vm] {
    VmRun& r2 = vms_[vm - 1];
    if (!StreamLive(r2, NodeLoop(r2.home)->now())) return;
    SendVmDone(vm);
  });
}

// --- Snapshot (quiesce points only: a fully drained admission wave) ---

// Fingerprint of every MarketplaceOptions field: a snapshot only loads into a
// run built from the same options.
uint64_t Marketplace::ConfigFingerprint() const {
  return SnapshotHashString("marketplace-v2\n" + OptionsText(opts_));
}

std::string Marketplace::Save() {
  // The drained boundary leaves no live tenants, leases, or queued VMs —
  // only outcomes, counters, clocks, and the lease book's id/counter state
  // go on the wire.
  FV_CHECK(waiting_.empty());
  FV_CHECK(!reclaim_in_flight_);
  FV_CHECK(!takeover_active_);
  FV_CHECK_EQ(leases_->ActiveLeases(), 0);

  SnapshotWriter w;
  w.BeginSection("mkt.run");
  w.U64(ConfigFingerprint());
  SaveState(&w, progress_);
  w.BeginSection("mkt.clocks");
  SaveState(&w, EngineClocks::Of(nullptr, ploop_.get()));
  w.BeginSection("mkt.orch");
  SaveState(&w, orch_counts_);
  SaveState(&w, leases_->next_id());
  SaveState(&w, leases_->stats());
  w.BeginSection("mkt.vms");
  SaveState(&w, vms_);
  w.BeginSection("mkt.nodes");
  SaveState(&w, nodes_);

  w.BeginSection("mkt.series");
  for (const TimeSeries* ts : {&consolidation_, &stranded_}) {
    w.U32(static_cast<uint32_t>(ts->points().size()));
    for (const auto& [t, v] : ts->points()) {
      w.I64(t);
      w.F64(v);
    }
  }

  if (faulty_) {
    w.BeginSection("mkt.fault");
    SaveState(&w, fault_counts_);
    SaveState(&w, int64_t{orch_node_});
    for (int n = 0; n < opts_.num_nodes; ++n) {
      w.U8(believed_up_[static_cast<size_t>(n)]);
      w.I64(nodes_[static_cast<size_t>(n)].orch_since);
    }
    SaveState(&w, detection_ns_);
    SaveState(&w, recovery_ns_);
    w.U32(static_cast<uint32_t>(wave_finish_.size()));
    SaveState(&w, wave_finish_);
    SaveFaultPlanState(&w, plan_.get());
  }

  w.BeginSection("mkt.transport");
  SaveTransportShards(&w, fabric_.get(), rpc_.get());
  return w.Finish();
}

bool Marketplace::Load(SnapshotReader* r) {
  RunProgress progress;
  r->Section("mkt.run");
  const uint64_t fingerprint = r->U64();
  LoadState(r, &progress);
  if (!r->ok()) return false;
  if (fingerprint != ConfigFingerprint()) {
    return r->FailExternal("marketplace: snapshot was taken under different MarketplaceOptions");
  }
  if (progress.epochs < 0 || progress.epochs > opts_.epochs) {
    return r->FailExternal("marketplace: snapshot claims more completed waves than the run has");
  }

  // Stage every record in the live shapes, which the options fix.
  EngineClocks clocks = EngineClocks::Of(nullptr, ploop_.get());
  OrchCounters counts;
  uint64_t lease_next = 0;
  LeaseStats lease;
  std::vector<VmRun> vms = vms_;  // keeps the trace-derived shape
  std::vector<NodeRt> nodes(nodes_.size());
  TimeSeries consolidation;
  TimeSeries stranded;
  FailoverCounters fault_counts;
  int64_t orch = 0;
  std::vector<uint8_t> believed(nodes_.size());
  Histogram detection;
  Histogram recovery;
  std::vector<TimeNs> wave_finish;
  TransportShards transport;
  r->Section("mkt.clocks");
  LoadState(r, &clocks);
  r->Section("mkt.orch");
  LoadState(r, &counts);
  LoadState(r, &lease_next);
  LoadState(r, &lease);
  r->Section("mkt.vms");
  LoadState(r, &vms);
  r->Section("mkt.nodes");
  LoadState(r, &nodes);
  r->Section("mkt.series");
  for (TimeSeries* ts : {&consolidation, &stranded}) {
    const uint32_t count = r->U32();
    for (uint32_t i = 0; r->ok() && i < count; ++i) {
      const TimeNs t = r->I64();
      ts->Append(t, r->F64());
    }
  }
  if (faulty_) {
    r->Section("mkt.fault");
    LoadState(r, &fault_counts);
    LoadState(r, &orch);
    for (size_t n = 0; n < nodes.size(); ++n) {
      believed[n] = r->U8();
      nodes[n].orch_since = r->I64();
    }
    LoadState(r, &detection);
    LoadState(r, &recovery);
    const uint32_t stamps = r->U32();
    if (r->ok() && stamps > static_cast<uint32_t>(progress.epochs)) {
      return r->FailExternal("marketplace: more wave-finish stamps than completed waves");
    }
    wave_finish.resize(stamps);
    LoadState(r, &wave_finish);
    LoadFaultPlanState(r, plan_.get());
  }
  r->Section("mkt.transport");
  LoadTransportShards(r, fabric_.get(), &transport);
  if (!r->AtEnd()) return false;

  // Validate, before any loop sees the clocks: AdvanceTo treats a time
  // regression as a programming error.
  if (clocks.AnyNegative()) return r->FailExternal("marketplace: negative virtual clock");
  if (lease_next == kInvalidLease) return r->FailExternal("marketplace: invalid lease id counter");
  for (const VmRun& run : vms) {
    if (run.status != VmStatus::kPending && run.status != VmStatus::kDone &&
        !(faulty_ && run.status == VmStatus::kFailed)) {
      return r->FailExternal("marketplace: snapshot holds a live VM (not a wave boundary)");
    }
    if (run.status == VmStatus::kDone && (run.home < 0 || run.home >= opts_.num_nodes ||
                                          run.span < 1 || run.span > opts_.num_nodes)) {
      return r->FailExternal("marketplace: VM outcome out of range");
    }
    if (run.fail_reason > static_cast<uint8_t>(VmFailReason::kCapacity)) {
      return r->FailExternal("marketplace: VM fail reason out of range");
    }
  }
  if (faulty_ &&
      (orch < 0 || orch >= opts_.num_nodes || believed[static_cast<size_t>(orch)] == 0)) {
    return r->FailExternal("marketplace: snapshot orchestrator is not a believed-up node");
  }

  // Commit.
  clocks.Restore(nullptr, ploop_.get());
  vms_ = std::move(vms);
  nodes_ = std::move(nodes);
  consolidation_ = std::move(consolidation);
  stranded_ = std::move(stranded);
  orch_counts_ = counts;
  leases_->RestoreNextId(lease_next);
  *leases_->mutable_stats() = lease;
  CommitTransportShards(transport, fabric_.get(), rpc_.get());
  progress_ = progress;

  if (faulty_) {
    fault_counts_ = fault_counts;
    orch_node_ = static_cast<NodeId>(orch);
    leases_->FailoverReset(orch_node_);
    *leases_->mutable_stats() = lease;  // the reset bumped failover_cleared
    believed_up_ = std::move(believed);
    detection_ns_ = detection;
    recovery_ns_ = recovery;
    wave_finish_ = std::move(wave_finish);
  }

  // Rebuild the home-side routing/runtime state the sections don't carry
  // (fresh staged nodes have empty homed_vms and default orch_view).
  for (NodeRt& nr : nodes_) nr.orch_view = orch_node_;
  for (size_t i = 0; i < vms_.size(); ++i) {
    VmRun& run = vms_[i];
    if (run.status != VmStatus::kDone) continue;
    run.home_done = true;
    run.home_finished = run.finished;
    run.home_epoch = run.started;
    nodes_[static_cast<size_t>(run.home)].homed_vms.push_back(i + 1);  // ascending by construction
  }
  return true;
}

uint64_t Marketplace::Digest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis, folded per word
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const NodeRt& nr : nodes_) {
    MarketplaceNodeCounters::Fields(mix, nr.c);
    mix(nr.latency.count());
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      mix(nr.latency.bucket(i));
    }
  }
  for (const VmRun& run : vms_) {
    mix(static_cast<uint64_t>(run.status));
    mix(static_cast<uint64_t>(run.submitted));
    mix(static_cast<uint64_t>(run.started));
    mix(static_cast<uint64_t>(run.finished));
    mix(static_cast<uint64_t>(static_cast<int64_t>(run.home)));
    mix(static_cast<uint64_t>(run.span));
  }
  OrchCounters::Fields(mix, orch_counts_);
  if (faulty_) {
    mix(fault_counts_.failovers);
    mix(fault_counts_.vms_failed);
    mix(fault_counts_.nodes_died);
    mix(fault_counts_.lender_replacements);
    mix(fault_counts_.lender_degradations);
    mix(fault_counts_.late_dones);
    mix(fault_counts_.journal_records);
    for (const VmRun& run : vms_) mix(run.fail_reason);
    for (const uint8_t b : believed_up_) mix(b);
  }
  return h;
}

MarketplaceResult Marketplace::Run(const MarketplaceRunConfig& cfg) {
  for (int wave = progress_.epochs; wave < opts_.epochs; ++wave) {
    BuildWaveSchedule(wave);
    if (faulty_ && !wave_sched_.empty()) {
      WavePrep();
      ScheduleKickoff();
    }
    ScheduleWave();
    RunEngine();
    if (faulty_) {
      // The engine drained but a crash may have left non-terminal VMs (no
      // armed successor, gated arrivals, lost done notices, or tenants the
      // survivors can never fit). Each backstop round strictly reduces the
      // non-terminal set or fails the remainder; the guard is generous.
      int guard = 0;
      while (!WaveTerminal(wave)) {
        FV_CHECK_LT(guard++, 4 * (opts_.num_nodes + 4));
        DriverRecover(wave);
        RunEngine();
      }
    }
    CheckWaveDrained(wave);
    wave_finish_.push_back(ploop_->now_max());
    progress_.epochs = wave + 1;
    if (cfg.snapshot_out != nullptr && progress_.epochs == cfg.snapshot_epoch) {
      *cfg.snapshot_out = Save();
    }
  }

  MarketplaceResult r;
  r.per_node.reserve(nodes_.size());
  for (const NodeRt& nr : nodes_) {
    r.per_node.push_back(nr.c);
    AccumulateState(&r.totals, nr.c);
    r.latency.Accumulate(nr.latency);
  }
  r.placed_single = orch_counts_.placed_single;
  r.placed_aggregate = orch_counts_.placed_aggregate;
  r.delayed = orch_counts_.delayed;
  r.reclaims = orch_counts_.reclaims;
  r.vms_completed = orch_counts_.vms_completed;
  r.lease = leases_->stats();
  r.vms.reserve(vms_.size());
  for (size_t i = 0; i < vms_.size(); ++i) {
    const VmRun& run = vms_[i];
    VmOutcome o;
    o.vm = i + 1;
    o.vcpus = run.vcpus;
    o.submitted = run.submitted;
    o.started = run.started;
    o.finished = run.finished;
    o.home = run.home;
    o.span_nodes = run.span;
    o.completed = run.status == VmStatus::kDone;
    o.failed = run.status == VmStatus::kFailed;
    o.fail_reason = static_cast<VmFailReason>(run.fail_reason);
    r.vms.push_back(o);
  }
  r.consolidation = consolidation_;
  r.stranded = stranded_;
  r.finish_time = ploop_->now_max();
  r.events_dispatched = progress_.events;
  r.state_digest = Digest();
  r.fabric = fabric_->MergedStats();
  r.rpc = rpc_->MergedStats();
  r.used_fault_plan = faulty_;
  r.vms_failed = fault_counts_.vms_failed;
  r.failovers = fault_counts_.failovers;
  r.nodes_died = fault_counts_.nodes_died;
  r.lender_replacements = fault_counts_.lender_replacements;
  r.lender_degradations = fault_counts_.lender_degradations;
  r.journal_records = fault_counts_.journal_records;
  r.late_dones = fault_counts_.late_dones;
  r.detection_ns = detection_ns_;
  r.recovery_ns = recovery_ns_;
  r.wave_finish_ns = wave_finish_;
  uint64_t residue = 0;
  for (const TenantLedger& l : ledgers_) {
    residue += static_cast<uint64_t>(l.committed_vcpus());
  }
  r.ledger_residue_slots = residue;
  if (faulty_) {
    r.faults = plan_->MergedStats();
    r.retry = fabric_->MergedRetryStats();
  }
  r.threads = threads_;
  r.core = ploop_->stats();
  return r;
}

}  // namespace

const char* MarketplaceOptions::Invalid() const {
  // The marketplace always runs on the parallel engine, whose CrossEventId
  // packs partition ids in 16 bits.
  if (num_nodes < 1 || num_nodes > 65535) return "nodes (num_nodes) must be between 1 and 65535";
  // Wide control tokens carry two node ids in 12 bits each.
  if (faults.any() && num_nodes > 4096) {
    return "nodes (num_nodes) must be at most 4096 with a fault schedule";
  }
  if (vcpus_per_node < 1) return "vcpus_per_node must be at least 1";
  if (mem_per_node == 0) return "mem_gb (mem_per_node) must be above 0";
  if (policy != "fragbff" && policy != "harvest") return "policy must be fragbff or harvest";
  if (epochs < 1) return "epochs must be at least 1";
  if (const char* why = trace.Invalid()) return why;
  // The largest VM must fit the cluster's aggregate, and each slot a node.
  if (static_cast<uint64_t>(trace.max_vcpus) >
      static_cast<uint64_t>(num_nodes) * static_cast<uint64_t>(vcpus_per_node)) {
    return "max_vcpus (trace.max_vcpus) must be at most nodes x vcpus_per_node";
  }
  if (trace.mem_per_vcpu > mem_per_node) {
    return "mem_per_vcpu_mb (trace.mem_per_vcpu) must be at most mem_gb";
  }
  // Times are delays the engine schedules after now; the failover beat and
  // probe re-arm themselves, so a zero period never lets time advance.
  if (think_ns < 0) return "think_ns must be at least 0";
  if (service_ns < 0) return "service_ns must be at least 0";
  if (page_service_ns < 0) return "page_service_ns must be at least 0";
  if (latency_jitter_ns < 0) return "jitter_ns (latency_jitter_ns) must be at least 0";
  if (failover.heartbeat_ns < 1) return "failover_heartbeat_ns must be at least 1";
  if (failover.probe_interval_ns < 1) return "failover_probe_interval_ns must be at least 1";
  if (failover.done_retry_ns < 0) return "failover_done_retry_ns must be at least 0";
  if (const char* why = link.Invalid()) return why;
  return topology.Invalid();
}

const char* VmFailReasonName(VmFailReason reason) {
  switch (reason) {
    case VmFailReason::kNone: return "none";
    case VmFailReason::kHomeCrash: return "home_crash";
    case VmFailReason::kOrchLost: return "orch_lost";
    case VmFailReason::kCapacity: return "capacity";
  }
  return "?";
}

MarketplaceResult RunMarketplace(const MarketplaceOptions& opts, int threads) {
  return RunMarketplaceEx(opts, threads, MarketplaceRunConfig{});
}

MarketplaceResult RunMarketplaceEx(const MarketplaceOptions& opts, int threads,
                                   const MarketplaceRunConfig& cfg) {
  if (cfg.snapshot_out != nullptr) {
    FV_CHECK_GE(cfg.snapshot_epoch, 1);
    FV_CHECK_LE(cfg.snapshot_epoch, opts.epochs);
  }
  // On resume the plan attaches unarmed: every transition marker fired
  // during the first run's engine passes, and the wave boundary is past all
  // of them (dsmstorm's resume follows the same rule).
  Marketplace mkt(opts, threads, /*arm_plan=*/cfg.snapshot_in == nullptr);
  if (cfg.snapshot_in != nullptr) {
    SnapshotReader r(*cfg.snapshot_in);
    if (!mkt.Load(&r)) {
      if (cfg.error == nullptr) {
        std::fprintf(stderr, "marketplace snapshot load failed: %s\n", r.error().c_str());
        std::abort();
      }
      *cfg.error = r.error();
      return MarketplaceResult{};
    }
  }
  return mkt.Run(cfg);
}

std::string MarketplaceReport(const MarketplaceResult& r) {
  // Deliberately engine-bookkeeping-free: no thread count, no parallel-core
  // stats. Two runs satisfy the determinism contract iff these bytes match.
  std::string out;
  out.reserve(4096 + r.per_node.size() * 96 + r.vms.size() * 96);
  const auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  const auto u = [](uint64_t v) { return std::to_string(v); };
  // Doubles go through a fixed format so the bytes are a pure function of
  // the (deterministic) value.
  const auto f = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::string(buf);
  };
  line("finish_ns=" + std::to_string(r.finish_time));
  line("digest=" + u(r.state_digest));
  line("totals local=" + u(r.totals.local_requests) + " remote=" + u(r.totals.remote_requests) +
       " served_pages=" + u(r.totals.served_pages) + " reclaim_moves=" +
       u(r.totals.reclaim_moves) + " failures=" + u(r.totals.request_failures));
  line("latency count=" + u(r.latency.count()) + " p50_ns=" +
       u(static_cast<uint64_t>(r.latency.Percentile(50))) + " p99_ns=" +
       u(static_cast<uint64_t>(r.latency.Percentile(99))) + " max_ns=" +
       u(static_cast<uint64_t>(r.latency.max())));
  line("placement single=" + u(r.placed_single) + " aggregate=" + u(r.placed_aggregate) +
       " delayed=" + u(r.delayed) + " reclaims=" + u(r.reclaims) + " completed=" +
       u(r.vms_completed));
  line("lease granted=" + u(r.lease.granted.value()) + " revoked=" + u(r.lease.revoked.value()) +
       " released=" + u(r.lease.released.value()) + " handbacks=" + u(r.lease.handbacks.value()));
  line("consolidation mean=" + f(r.consolidation.MeanValue()) + " final=" +
       f(r.consolidation.empty() ? 0.0 : r.consolidation.points().back().second));
  line("stranded mean=" + f(r.stranded.MeanValue()) + " final=" +
       f(r.stranded.empty() ? 0.0 : r.stranded.points().back().second));
  line("fabric messages=" + u(r.fabric.total_messages.value()) + " bytes=" +
       u(r.fabric.total_bytes.value()));
  line("rpc calls=" + u(r.rpc.calls.value()) + " notifies=" + u(r.rpc.notifies.value()) +
       " failures=" + u(r.rpc.call_failures.value()));
  if (r.used_fault_plan) {
    line("faults dropped=" + u(r.faults.messages_dropped.value()) + " duplicated=" +
         u(r.faults.messages_duplicated.value()) + " delayed=" +
         u(r.faults.messages_delayed.value()) + " crashes=" + u(r.faults.node_crashes.value()) +
         " restarts=" + u(r.faults.node_restarts.value()) + " cuts=" +
         u(r.faults.partitions_cut.value()) + " heals=" + u(r.faults.partitions_healed.value()));
    line("retry retransmits=" + u(r.retry.retransmits.total()) + " timeouts=" +
         u(r.retry.timeouts.total()) + " send_failures=" + u(r.retry.send_failures.total()) +
         " dups_suppressed=" + u(r.retry.dups_suppressed.total()));
    line("chaos failovers=" + u(r.failovers) + " nodes_died=" + u(r.nodes_died) +
         " vms_failed=" + u(r.vms_failed) + " replacements=" + u(r.lender_replacements) +
         " degradations=" + u(r.lender_degradations) + " journal=" + u(r.journal_records) +
         " late_dones=" + u(r.late_dones) + " residue=" + u(r.ledger_residue_slots));
    line("failover detect_count=" + u(r.detection_ns.count()) + " detect_p50_ns=" +
         u(static_cast<uint64_t>(r.detection_ns.Percentile(50))) + " detect_p99_ns=" +
         u(static_cast<uint64_t>(r.detection_ns.Percentile(99))) + " recover_count=" +
         u(r.recovery_ns.count()) + " recover_p50_ns=" +
         u(static_cast<uint64_t>(r.recovery_ns.Percentile(50))) + " recover_p99_ns=" +
         u(static_cast<uint64_t>(r.recovery_ns.Percentile(99))));
  }
  for (size_t n = 0; n < r.per_node.size(); ++n) {
    const MarketplaceNodeCounters& c = r.per_node[n];
    line("node " + std::to_string(n) + " local=" + u(c.local_requests) + " remote=" +
         u(c.remote_requests) + " served=" + u(c.served_pages) + " moves=" +
         u(c.reclaim_moves) + " failures=" + u(c.request_failures));
  }
  for (const VmOutcome& o : r.vms) {
    std::string v = "vm " + u(o.vm) + " vcpus=" + std::to_string(o.vcpus) + " submit_ns=" +
                    std::to_string(o.submitted) + " start_ns=" + std::to_string(o.started) +
                    " finish_ns=" + std::to_string(o.finished) + " home=" +
                    std::to_string(o.home) + " span=" + std::to_string(o.span_nodes) +
                    " done=" + (o.completed ? "1" : "0");
    if (r.used_fault_plan) {
      v += " fail=" + std::to_string(static_cast<int>(o.fail_reason));
    }
    line(v);
  }
  return out;
}

}  // namespace fragvisor

// Simulated cluster interconnect.
//
// The fabric connects hypervisor instances (one per node) with directed
// point-to-point links. Each link has a propagation latency and a bandwidth;
// messages on the same directed link serialize FIFO (a 4 KiB DSM page and a
// doorbell racing on the same link queue behind each other, as on a real NIC).
//
// Two link profiles matter for the paper's testbed: the 56 Gbps InfiniBand
// fabric between compute nodes, and the 1 Gbps Ethernet link to the external
// client/load generator. A TopologyConfig can additionally replace the
// uniform mesh with a two-tier fat-tree (shared pod uplinks and an
// oversubscribed, ECMP-hashed core — see TopologyConfig below).
//
// Fault injection: AttachFaultPlan() puts a sim::FaultPlan between Send and
// the wire. With a plan attached, Send() becomes a reliable channel — each
// message gets an ack-grace retransmit timer with bounded exponential
// backoff, and the sender decides which transmitted copy the receiver
// accepts, so the callback runs exactly once (or `on_fail` runs, once, after
// the attempt budget is spent against a dead or partitioned peer).
// SendDatagram() skips all of that: fire-and-forget, faults land unfiltered
// (heartbeats want exactly this). The same code runs on the serial EventLoop
// and on the partitioned ParallelEventLoop. An *empty* attached plan is
// observationally free: every copy lands no later than its ack deadline, so
// it is committed directly and arms no timer at all, no ack messages exist,
// and the byte/message accounting is untouched, so every output stays
// bit-identical to a run with no plan at all.

#ifndef FRAGVISOR_SRC_NET_FABRIC_H_
#define FRAGVISOR_SRC_NET_FABRIC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/fault_plan.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/state_io.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {

class CaptureLog;

// Identifies a physical server in the cluster. Dense, starting at 0.
using NodeId = int32_t;

inline constexpr NodeId kInvalidNode = -1;

// Message classes, for traffic accounting and debugging. The protocols define
// the payload semantics; the fabric only needs sizes.
enum class MsgKind : uint8_t {
  kDsmReadReq,
  kDsmWriteReq,
  kDsmPageData,
  kDsmInvalidate,
  kDsmAck,
  kIpi,
  kTlbShootdown,
  kIoDoorbell,
  kIoPayload,
  kIoCompletion,
  kVcpuMigration,
  kCheckpointData,
  kControl,
  kLease,
  kDsmOwnerNotify,  // async owner-hint home notify (fast-path serves)
  kCount,
};

const char* MsgKindName(MsgKind kind);

// Latency/bandwidth description of a directed link.
struct LinkParams {
  TimeNs latency = 0;            // one-way propagation + switch + NIC latency
  double bytes_per_second = 0;   // serialization bandwidth
  // Requester-side cost of posting a one-sided RDMA read (verb setup + QP
  // doorbell). Only consulted by protocols running in one-sided mode
  // (--dsm-rdma-read); zero and unread otherwise.
  TimeNs one_sided_setup = 0;

  // Option keys (src/sim/options_text.h).
  template <typename V>
  void Visit(V&& v) {
    v("link_latency_ns", latency);
    v("link_bps", bytes_per_second);
    v("link_one_sided_setup_ns", one_sided_setup);
  }

  // The first broken rule, naming its key, or null: a latency of at least
  // 1 ns (the parallel core's lookahead), a bandwidth above 0 and a setup
  // cost of at least 0.
  const char* Invalid() const;

  // 56 Gbps InfiniBand (Mellanox ConnectX-4 class): ~1.5 us one-way for small
  // messages through one switch.
  static LinkParams InfiniBand56G();
  // 1 Gbps Ethernet to the client LAN: ~100 us one-way (kernel stack + switch).
  static LinkParams Ethernet1G();
};

// Cluster interconnect topology. The default is the seed-era uniform mesh:
// every directed pair is an independent link. kFatTree models a two-tier
// fat-tree: nodes [k*pod_size, (k+1)*pod_size) share an edge switch, same-pod
// traffic behaves exactly like the mesh, and cross-pod traffic additionally
// serializes through the sender's pod uplink and one deterministically
// ECMP-hashed core plane whose bandwidth is the edge bandwidth divided by
// `oversub`. All congestion horizons are kept sender-local so the model stays
// race-free on the parallel core (see WireArrival).
struct TopologyConfig {
  enum class Kind : uint8_t { kMesh, kFatTree };

  Kind kind = Kind::kMesh;
  int pod_size = 8;      // nodes per edge switch (fat-tree only)
  double oversub = 1.0;  // core oversubscription ratio (finite, >= 1; fat-tree only)
  int core_planes = 4;   // independent core switch planes for ECMP spreading

  bool fat_tree() const { return kind == Kind::kFatTree; }

  // Option keys (src/sim/options_text.h): "topology" is mesh or fat-tree.
  template <typename V>
  void Visit(V&& v) {
    static constexpr std::array<const char*, 2> kKindNames = {"mesh", "fat-tree"};
    v("topology", kind, kKindNames);
    v("pod", pod_size);
    v("oversub", oversub);
    v("planes", core_planes);
  }

  // The first broken rule, naming its key, or null. Checked on every
  // topology, so a value is refused before it is ever read.
  const char* Invalid() const;

  static TopologyConfig Mesh() { return TopologyConfig(); }
  static TopologyConfig FatTree(int pod_size, double oversub, int core_planes = 4) {
    TopologyConfig t;
    t.kind = Kind::kFatTree;
    t.pod_size = pod_size;
    t.oversub = oversub;
    t.core_planes = core_planes;
    return t;
  }
};

// --- Transport fast-path size models (shared by DSM and the marketplace) ----
//
// Deterministic per-page compressibility class in [0, 3]; class c compresses
// a page body to (4 - c)/4 of its size (1.0x, 0.75x, 0.5x, 0.25x). Pure
// function of (seed, page) — identical on every node, every worker count.
int PageCompressClass(uint64_t seed, uint64_t page);
// Modeled compressed size of a `payload`-byte page body (headers never
// compress): payload * (4 - class) / 4, integer arithmetic.
uint64_t CompressedPayloadBytes(uint64_t seed, uint64_t page, uint64_t payload);
// Modeled delta-encoded size for a receiver `versions_behind` writes stale:
// one sixteenth of the payload per missed version (capped at the full body).
uint64_t DeltaPayloadBytes(uint64_t payload, uint64_t versions_behind);

// Per-kind traffic counters for one fabric.
struct FabricStats {
  std::array<Counter, static_cast<size_t>(MsgKind::kCount)> messages;
  std::array<Counter, static_cast<size_t>(MsgKind::kCount)> bytes;
  Counter total_messages;
  Counter total_bytes;

  void Account(MsgKind kind, uint64_t size);

  // The field list (src/sim/state_io.h), in snapshot wire order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.messages...);
    v(s.bytes...);
    v(s.total_messages...);
    v(s.total_bytes...);
  }
};

// Retransmission behavior of the reliable channel (active only with a fault
// plan attached). The grace period doubles per attempt up to `max_grace`;
// after `max_attempts` unacknowledged tries the send fails over to on_fail.
struct RetryPolicy {
  TimeNs ack_grace = Micros(200);  // wait past expected arrival before resend
  TimeNs max_grace = Millis(20);   // backoff ceiling
  int max_attempts = 8;
};

// Reliability counters, attributed per node: retransmits/timeouts/failures to
// the sender, suppressed duplicates to the receiver.
struct RetryStats {
  NodeCounterSet retransmits;      // resends after a missed ack grace
  NodeCounterSet timeouts;         // grace periods that expired
  NodeCounterSet send_failures;    // sends abandoned after max_attempts
  NodeCounterSet dups_suppressed;  // duplicate arrivals dropped at receiver

  void Init(int num_nodes) {
    Fields([num_nodes](NodeCounterSet& set) { set.Init(num_nodes); }, *this);
  }

  // The field list (src/sim/state_io.h), in snapshot wire order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.retransmits...);
    v(s.timeouts...);
    v(s.send_failures...);
    v(s.dups_suppressed...);
  }
};

class Fabric {
 public:
  using DeliveryFn = EventLoop::Callback;

  // Creates a fabric over `num_nodes` nodes; all links default to `defaults`.
  Fabric(EventLoop* loop, int num_nodes, LinkParams defaults,
         TopologyConfig topology = TopologyConfig());

  // Parallel-core fabric: node n's events execute on partition n of `ploop`,
  // and every cross-node delivery is committed through the destination
  // partition's mailbox. Requires one partition per node and a lookahead no
  // larger than the topology's minimum *effective* first-hop latency
  // (MinEffectiveLatency; checked here and in SetLinkParams). Stats are
  // sharded per sending node — read them through
  // MergedStats()/MergedRetryStats().
  Fabric(ParallelEventLoop* ploop, int num_nodes, LinkParams defaults,
         TopologyConfig topology = TopologyConfig());

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_nodes() const { return num_nodes_; }

  // True when this fabric runs on the partitioned parallel core.
  bool parallel() const { return ploop_ != nullptr; }

  // The parallel engine (null in serial mode). Protocol layers that need to
  // commit cross-partition work directly (e.g. multicast round completion)
  // route it through here under the same lookahead contract as the fabric.
  ParallelEventLoop* parallel_loop() { return ploop_; }

  // The loop `node`'s events execute on: its partition in parallel mode, the
  // single shared loop otherwise. Protocol layers must schedule node-local
  // work (handler costs, retries, timeouts) here, never on a global loop.
  EventLoop* node_loop(NodeId node) {
    if (ploop_ == nullptr) {
      return loop_;
    }
    return ploop_->partition(node);
  }

  // Overrides the parameters of the directed link src -> dst.
  void SetLinkParams(NodeId src, NodeId dst, LinkParams params);

  // Gives every directed link between two distinct nodes the default
  // parameters plus a fixed latency jitter, SplitMix64(seed ^ (src << 32 |
  // dst)) % (jitter + 1). A no-op for jitter <= 0; otherwise n^2 links, so
  // call it once, at setup.
  void JitterLinks(TimeNs jitter, uint64_t seed);

  // Parameters of the directed link src -> dst (schedulers layered above the
  // fabric need the serialization bandwidth). The reference stays valid and
  // current for the fabric's lifetime — hot paths should look it up once per
  // link, not once per send.
  const LinkParams& link_params(NodeId src, NodeId dst) { return LinkFor(src, dst).params; }

  const TopologyConfig& topology() const { return topology_; }

  // True when `a` and `b` hang off the same edge switch (always true on a
  // mesh: there is no switch tier to cross).
  bool SamePod(NodeId a, NodeId b) const {
    return !topology_.fat_tree() || a / topology_.pod_size == b / topology_.pod_size;
  }

  // Deterministic ECMP hash: the core plane carrying src -> dst traffic.
  // Stable per directed pair, so per-link arrival order is preserved.
  static int EcmpPlane(NodeId src, NodeId dst, int planes);

  // Minimum effective first-hop latency over every directed pair — the sound
  // upper bound for the parallel engine's conservative lookahead. On a mesh
  // (and on a fat-tree with at least one same-pod pair) this is the default
  // link latency; a fat-tree where every pair crosses pods adds the core-hop
  // propagation on top.
  static TimeNs MinEffectiveLatency(const TopologyConfig& topology, const LinkParams& defaults,
                                    int num_nodes);

  // Routes every subsequent Send/SendDatagram through `plan` (not owned; must
  // outlive the fabric). Arms the plan's transition markers on the loop and
  // turns Send() into the reliable channel described above. Pass arm = false
  // when restoring from a snapshot: the restored run resumes PAST every
  // transition time, so re-arming the markers would fire them again at the
  // resume instant and double-count the crash/partition counters; the
  // NodeUp/LinkCut queries need only the plan's static schedule.
  void AttachFaultPlan(FaultPlan* plan, RetryPolicy policy = RetryPolicy(), bool arm = true);
  const FaultPlan* fault_plan() const { return plan_; }
  FaultPlan* mutable_fault_plan() { return plan_; }

  // True unless an attached plan says `node` is crashed right now.
  bool NodeUp(NodeId node) const;

  // Sends `size` bytes from `src` to `dst`; `on_delivery` runs when the last
  // byte arrives at `dst`. src == dst is allowed and models a loopback with
  // zero wire time (delivered on the next event-loop dispatch at now()).
  // A nonzero `receiver_delay` charges that much receiver-side processing
  // after arrival before `on_delivery` runs (delivery and handler are two
  // event-loop hops, like a NIC interrupt followed by a softirq handler).
  //
  // With a fault plan attached this is a reliable send: on_delivery runs
  // exactly once even under drops/duplicates (retransmits fill the gaps), or
  // `on_fail` runs once if every attempt is lost — a crashed peer, an
  // unhealed partition. A null on_fail means the caller has its own recovery
  // (or none: legacy callers silently lose the message, as before the plan).
  //
  // `on_settle` (optional, either engine) runs on the *sending* node's loop
  // at the instant the accepted copy arrives at the receiver — the
  // sender-local proof of delivery the channel gets for free from the
  // first-copy-wins property. Exactly one of on_settle / on_fail runs; a send
  // abandoned after max_attempts never settles.
  //
  // The callbacks are taken by reference and moved only into the event slot
  // (or the reliable channel's Pending) that keeps them.
  void Send(NodeId src, NodeId dst, MsgKind kind, uint64_t size, DeliveryFn&& on_delivery,
            TimeNs receiver_delay = 0, DeliveryFn&& on_fail = nullptr,
            DeliveryFn&& on_settle = nullptr);

  // Unreliable send: no retries, no duplicate suppression — a drop loses the
  // message and a duplication runs `on_delivery` twice. Use for traffic whose
  // loss is the signal (heartbeats) or that is idempotent by construction.
  void SendDatagram(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                    DeliveryFn&& on_delivery, TimeNs receiver_delay = 0);

  // Convenience round-trip: request then response, invoking `on_response`
  // after `server_time` of processing at the destination. `on_fail` (if any)
  // fires once if either leg is abandoned.
  void SendRequestResponse(NodeId src, NodeId dst, MsgKind kind, uint64_t req_size,
                           uint64_t resp_size, TimeNs server_time, DeliveryFn on_response,
                           DeliveryFn on_fail = nullptr);

  // Attaches an append-only delivery capture (not owned; may be null to
  // detach). Every committed wire delivery is recorded — see capture.h for
  // exactly which commit points count.
  void SetCapture(CaptureLog* capture) { capture_ = capture; }
  CaptureLog* capture() const { return capture_; }

  const FabricStats& stats() const { return stats_; }
  FabricStats& mutable_stats() { return stats_; }
  const RetryStats& retry_stats() const { return retry_stats_; }

  // Snapshot restore: writable views of the per-sending-node stats shards
  // (parallel mode) or the single global blocks (serial). Same routing as the
  // fabric's own accounting, exposed so a loaded snapshot can repopulate the
  // counters it saved.
  FabricStats& StatsShardForRestore(NodeId src) { return StatsFor(src); }
  RetryStats& RetryShardForRestore(NodeId src) { return RetryStatsFor(src); }

  // Serial stats plus every per-node shard. In serial mode this equals
  // stats()/retry_stats(); in parallel mode it is the only complete view.
  FabricStats MergedStats() const { return MergeShards(stats_, shard_stats_); }
  RetryStats MergedRetryStats() const { return MergeShards(retry_stats_, shard_retry_); }

  // Total payload bytes placed on the wire so far (excludes loopback).
  uint64_t wire_bytes() const { return MergedStats().total_bytes.value(); }

 private:
  struct LinkState {
    LinkParams params;
    TimeNs busy_until = 0;
    // Latest arrival handed out on this link while a plan is attached; jittered
    // and duplicated deliveries clamp to it so FIFO order survives the plan.
    TimeNs last_arrival = 0;
  };

  // One in-flight reliable message, entirely local to the *sending* node:
  // the retransmit clock, every copy's computed arrival time, and the
  // win/fail decision are all src-local. Arrival times on a link are
  // non-decreasing in scheduling order (the last_arrival clamp), so the first
  // transmitted copy is always the one the receiver accepts, and the whole
  // state machine can run at the sender on either engine. Shared by the
  // src-local events that still need it (the retransmit timer, the settle
  // marker), so it is freed with the last of them — also when a run stops,
  // and its loop is destroyed, with the send still in flight.
  struct Pending {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    MsgKind kind = MsgKind::kControl;
    uint64_t size = 0;
    TimeNs receiver_delay = 0;
    DeliveryFn on_delivery;
    DeliveryFn on_fail;
    DeliveryFn on_settle;  // src-local delivery proof; never runs on failure
    int attempts = 0;
    bool winner_scheduled = false;  // the accepted copy's delivery is committed
    bool settled = false;           // the winner's arrival instant has passed
    bool failed = false;
    // Withdrawal handle of an unsealed winner: an EventId on the serial
    // engine, a CrossEventId on the parallel one.
    uint64_t winner = 0;
    EventId timer = kInvalidEventId;
  };

  // Where the fault plan puts one transmitted copy: lost, or landing at
  // `arrival` (and, when duplicated, once more at `dup_arrival`).
  struct WireFate {
    bool lost = true;
    bool duplicated = false;
    TimeNs arrival = 0;
    TimeNs dup_arrival = 0;
  };

  LinkState& LinkFor(NodeId src, NodeId dst);
  void ValidateNode(NodeId n) const;
  // Sizes the dense link table and the fat-tree congestion horizons.
  void InitTopologyState();

  // Stats shard for traffic sent by `src` (parallel), or the global block.
  FabricStats& StatsFor(NodeId src) {
    return shard_stats_.empty() ? stats_ : shard_stats_[static_cast<size_t>(src)];
  }
  RetryStats& RetryStatsFor(NodeId src) {
    return shard_retry_.empty() ? retry_stats_ : shard_retry_[static_cast<size_t>(src)];
  }

  // Computes the arrival time of `size` bytes put on the src -> dst `link` at
  // `now`, advancing the link's serialization horizon. Identical for raw and
  // reliable paths. On a fat-tree, cross-pod traffic additionally serializes
  // through the sender's pod uplink and its ECMP core plane; those horizons
  // are indexed by src only, so parallel-mode calls from different sending
  // partitions never touch the same state, and successive arrivals on one
  // directed link remain non-decreasing (the property the reliable channel's
  // first-copy-wins argument needs).
  TimeNs WireArrival(NodeId src, NodeId dst, LinkState& link, uint64_t size, TimeNs now);

  // Extra propagation latency a src -> dst message pays beyond its pair
  // link's params.latency (the core hop on cross-pod fat-tree paths).
  TimeNs CrossPodExtra(NodeId src, NodeId dst) const {
    return SamePod(src, dst) ? 0 : defaults_.latency;
  }

  // Loopback (src == dst) never hits the wire and never faults: it runs on
  // the node's own loop at the current time, in order.
  void DeliverLocal(EventLoop* loop, TimeNs receiver_delay, DeliveryFn&& cb);

  // Commits a delivery of `cb` at `dst` at `arrival` (then a receiver_delay
  // handler hop) and records it in the capture log. One of the two steps
  // that differ between engines: the serial loop schedules it directly, the
  // parallel core posts it through dst's mailbox. With `cancellable` the
  // returned handle can be passed to WithdrawWinner.
  uint64_t CommitDelivery(NodeId src, NodeId dst, MsgKind kind, uint64_t size, TimeNs arrival,
                          TimeNs receiver_delay, DeliveryFn&& cb, bool cancellable = false);
  // Withdraws a committed, not yet arrived winner: exact on the serial
  // engine, best effort within one window on the parallel one.
  void WithdrawWinner(Pending* p);

  // Applies the fault plan to a copy put on the src -> dst `link` at `now`
  // with unperturbed arrival `base_arrival`, advancing the FIFO clamp.
  WireFate Transmit(NodeId src, NodeId dst, LinkState& link, TimeNs base_arrival, TimeNs now);

  TimeNs GraceFor(int attempt) const;
  void Attempt(const std::shared_ptr<Pending>& p);
  void OnWinnerSettled(Pending* p);
  void OnRetryTimeout(const std::shared_ptr<Pending>& p);
  void Fail(Pending* p);

  EventLoop* loop_;
  ParallelEventLoop* ploop_ = nullptr;
  int num_nodes_;
  LinkParams defaults_;
  TopologyConfig topology_;
  // Dense link table, indexed src * num_nodes + dst, sized once at
  // construction (entries and their params pointers stay stable for the
  // fabric's lifetime). Clusters too large for a dense table fall back to the
  // lazily populated map.
  std::vector<LinkState> dense_links_;
  std::map<std::pair<NodeId, NodeId>, LinkState> links_;
  // Fat-tree congestion horizons, all indexed by the sending node (never
  // shared across partitions): the pod uplink, and one entry per (src, core
  // plane) modeling the sender's share of the oversubscribed core.
  std::vector<TimeNs> uplink_busy_;
  std::vector<TimeNs> core_busy_;
  FabricStats stats_;
  // Per-sending-node shards (parallel mode only): a link (src, dst) is only
  // ever touched from src's partition, so shard writes never race.
  std::vector<FabricStats> shard_stats_;
  std::vector<RetryStats> shard_retry_;

  CaptureLog* capture_ = nullptr;
  FaultPlan* plan_ = nullptr;
  RetryPolicy policy_;
  RetryStats retry_stats_;
};

// Serialization time of `size` bytes at `params.bytes_per_second`.
TimeNs WireTime(const LinkParams& params, uint64_t size);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_NET_FABRIC_H_

#include "src/net/fabric.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/net/capture.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace fragvisor {

const char* MsgKindName(MsgKind kind) {
  switch (kind) {
    case MsgKind::kDsmReadReq:
      return "dsm_read_req";
    case MsgKind::kDsmWriteReq:
      return "dsm_write_req";
    case MsgKind::kDsmPageData:
      return "dsm_page_data";
    case MsgKind::kDsmInvalidate:
      return "dsm_invalidate";
    case MsgKind::kDsmAck:
      return "dsm_ack";
    case MsgKind::kIpi:
      return "ipi";
    case MsgKind::kTlbShootdown:
      return "tlb_shootdown";
    case MsgKind::kIoDoorbell:
      return "io_doorbell";
    case MsgKind::kIoPayload:
      return "io_payload";
    case MsgKind::kIoCompletion:
      return "io_completion";
    case MsgKind::kVcpuMigration:
      return "vcpu_migration";
    case MsgKind::kCheckpointData:
      return "checkpoint_data";
    case MsgKind::kControl:
      return "control";
    case MsgKind::kLease:
      return "lease";
    case MsgKind::kDsmOwnerNotify:
      return "dsm_owner_notify";
    case MsgKind::kCount:
      break;
  }
  return "unknown";
}

LinkParams LinkParams::InfiniBand56G() {
  return LinkParams{
      .latency = Nanos(1500),
      .bytes_per_second = 56e9 / 8.0,
      // Posting an RDMA read verb: WQE build + doorbell, far below the
      // kernel-mediated page-fault handler it replaces.
      .one_sided_setup = Nanos(250),
  };
}

LinkParams LinkParams::Ethernet1G() {
  return LinkParams{
      .latency = Micros(100),
      .bytes_per_second = 1e9 / 8.0,
      // Software-emulated one-sided read (SoftRoCE class).
      .one_sided_setup = Micros(20),
  };
}

const char* LinkParams::Invalid() const {
  if (latency < 1) return "link_latency_ns (latency) must be at least 1";
  if (!(bytes_per_second > 0)) return "link_bps (bytes_per_second) must be above 0";
  if (one_sided_setup < 0) {
    return "link_one_sided_setup_ns (one_sided_setup) must be at least 0";
  }
  return nullptr;
}

const char* TopologyConfig::Invalid() const {
  if (pod_size < 1) return "pod (pod_size) must be at least 1";
  // The core's bandwidth is the edge's divided by oversub, so it must stay
  // finite for the core to carry anything.
  if (!(oversub >= 1.0 && std::isfinite(oversub))) return "oversub must be finite and at least 1";
  if (core_planes < 1) return "planes (core_planes) must be at least 1";
  return nullptr;
}

namespace {

// Nodes per dense link table: above this the O(n^2) table would dominate
// memory and the map wins.
constexpr int kDenseLinkNodes = 512;

}  // namespace

int PageCompressClass(uint64_t seed, uint64_t page) {
  return static_cast<int>(SplitMix64(seed ^ (page * 0x9e3779b97f4a7c15ull)) & 3u);
}

uint64_t CompressedPayloadBytes(uint64_t seed, uint64_t page, uint64_t payload) {
  const uint64_t keep = 4u - static_cast<uint64_t>(PageCompressClass(seed, page));
  return payload * keep / 4u;
}

uint64_t DeltaPayloadBytes(uint64_t payload, uint64_t versions_behind) {
  const uint64_t delta = payload * versions_behind / 16u;
  return delta < payload ? delta : payload;
}

int Fabric::EcmpPlane(NodeId src, NodeId dst, int planes) {
  FV_CHECK_GT(planes, 0);
  const uint64_t pair = (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
                        static_cast<uint64_t>(static_cast<uint32_t>(dst));
  return static_cast<int>(SplitMix64(pair) % static_cast<uint64_t>(planes));
}

TimeNs Fabric::MinEffectiveLatency(const TopologyConfig& topology, const LinkParams& defaults,
                                   int num_nodes) {
  if (!topology.fat_tree()) {
    return defaults.latency;
  }
  // A same-pod pair exists iff some edge switch has two nodes; its effective
  // latency is the plain link latency. Otherwise every pair pays the core hop.
  const bool same_pod_pair = topology.pod_size >= 2 && num_nodes >= 2;
  return same_pod_pair ? defaults.latency : defaults.latency + defaults.latency;
}

void FabricStats::Account(MsgKind kind, uint64_t size) {
  const auto idx = static_cast<size_t>(kind);
  messages[idx].Add(1);
  bytes[idx].Add(size);
  total_messages.Add(1);
  total_bytes.Add(size);
}

TimeNs WireTime(const LinkParams& params, uint64_t size) {
  FV_CHECK_GT(params.bytes_per_second, 0.0);
  return FromSeconds(static_cast<double>(size) / params.bytes_per_second);
}

void Fabric::InitTopologyState() {
  if (topology_.fat_tree()) {
    FV_CHECK_GT(topology_.pod_size, 0);
    FV_CHECK_GE(topology_.oversub, 1.0);
    FV_CHECK_GT(topology_.core_planes, 0);
    uplink_busy_.assign(static_cast<size_t>(num_nodes_), 0);
    core_busy_.assign(static_cast<size_t>(num_nodes_) * static_cast<size_t>(topology_.core_planes),
                      0);
  }
  if (num_nodes_ <= kDenseLinkNodes) {
    LinkState blank;
    blank.params = defaults_;
    dense_links_.assign(static_cast<size_t>(num_nodes_) * static_cast<size_t>(num_nodes_), blank);
  }
}

Fabric::Fabric(EventLoop* loop, int num_nodes, LinkParams defaults, TopologyConfig topology)
    : loop_(loop), num_nodes_(num_nodes), defaults_(defaults), topology_(topology) {
  FV_CHECK(loop != nullptr);
  FV_CHECK_GT(num_nodes, 0);
  InitTopologyState();
  retry_stats_.Init(num_nodes);
}

Fabric::Fabric(ParallelEventLoop* ploop, int num_nodes, LinkParams defaults,
               TopologyConfig topology)
    : loop_(nullptr), ploop_(ploop), num_nodes_(num_nodes), defaults_(defaults),
      topology_(topology) {
  FV_CHECK(ploop != nullptr);
  FV_CHECK_GT(num_nodes, 0);
  FV_CHECK_EQ(ploop->num_partitions(), num_nodes);
  // Conservative-synchronization soundness: no message may arrive sooner
  // than one lookahead after it was sent. The bound is the topology's minimum
  // *effective* first-hop latency (an all-cross-pod fat-tree legitimately
  // supports a lookahead larger than the raw link latency).
  FV_CHECK_LE(ploop->lookahead(), MinEffectiveLatency(topology, defaults, num_nodes));
  InitTopologyState();
  retry_stats_.Init(num_nodes);
  shard_stats_.assign(static_cast<size_t>(num_nodes), FabricStats());
  shard_retry_.resize(static_cast<size_t>(num_nodes));
  for (RetryStats& r : shard_retry_) {
    r.Init(num_nodes);
  }
  // Pre-create every directed link: links_ is then never mutated during a
  // run, so concurrent LinkFor lookups from different partitions are reads.
  // (The dense table is already fully materialized at construction.)
  if (dense_links_.empty()) {
    for (NodeId s = 0; s < num_nodes; ++s) {
      for (NodeId d = 0; d < num_nodes; ++d) {
        if (s != d) {
          LinkFor(s, d);
        }
      }
    }
  }
}

void Fabric::ValidateNode(NodeId n) const {
  FV_CHECK_GE(n, 0);
  FV_CHECK_LT(n, num_nodes_);
}

Fabric::LinkState& Fabric::LinkFor(NodeId src, NodeId dst) {
  if (!dense_links_.empty()) {
    return dense_links_[static_cast<size_t>(src) * static_cast<size_t>(num_nodes_) +
                        static_cast<size_t>(dst)];
  }
  auto [it, inserted] = links_.try_emplace({src, dst});
  if (inserted) {
    it->second.params = defaults_;
  }
  return it->second;
}

void Fabric::SetLinkParams(NodeId src, NodeId dst, LinkParams params) {
  ValidateNode(src);
  ValidateNode(dst);
  if (ploop_ != nullptr) {
    // Per-pair effective first-hop latency must still cover the lookahead;
    // cross-pod pairs get the core hop's propagation on top of the pair link.
    FV_CHECK_GE(params.latency + CrossPodExtra(src, dst), ploop_->lookahead());
  }
  LinkFor(src, dst).params = params;
}

void Fabric::JitterLinks(TimeNs jitter, uint64_t seed) {
  if (jitter <= 0) {
    return;
  }
  for (NodeId s = 0; s < num_nodes_; ++s) {
    for (NodeId d = 0; d < num_nodes_; ++d) {
      if (s == d) {
        continue;
      }
      LinkParams lp = defaults_;
      const uint64_t key =
          SplitMix64(seed ^ (static_cast<uint64_t>(s) << 32 | static_cast<uint32_t>(d)));
      lp.latency += static_cast<TimeNs>(key % static_cast<uint64_t>(jitter + 1));
      SetLinkParams(s, d, lp);
    }
  }
}

void Fabric::AttachFaultPlan(FaultPlan* plan, RetryPolicy policy, bool arm) {
  FV_CHECK(plan != nullptr);
  FV_CHECK(plan_ == nullptr);
  FV_CHECK_GT(policy.ack_grace, 0);
  FV_CHECK_GE(policy.max_grace, policy.ack_grace);
  FV_CHECK_GT(policy.max_attempts, 0);
  plan_ = plan;
  policy_ = policy;
  if (ploop_ != nullptr) {
    // On the parallel core the channel draws perturbations on the sending
    // partition, which requires one independent RNG stream per node.
    FV_CHECK(plan_->per_node_streams());
    if (arm) {
      plan_->ArmParallel(ploop_);
    }
    return;
  }
  if (arm) {
    plan_->Arm(loop_);
  }
}

bool Fabric::NodeUp(NodeId node) const {
  ValidateNode(node);
  if (plan_ == nullptr) {
    return true;
  }
  const TimeNs now = ploop_ != nullptr ? ploop_->partition(node)->now() : loop_->now();
  return plan_->NodeUp(node, now);
}

TimeNs Fabric::WireArrival(NodeId src, NodeId dst, LinkState& link, uint64_t size, TimeNs now) {
  const TimeNs start = std::max(now, link.busy_until);
  const TimeNs depart = start + WireTime(link.params, size);
  link.busy_until = depart;
  if (SamePod(src, dst)) {
    // Mesh, or both endpoints under one edge switch: the seed-era math,
    // byte for byte.
    return depart + link.params.latency;
  }
  // Cross-pod fat-tree path: after the pair link (NIC + edge port), the
  // message serializes through the sender's pod uplink at edge bandwidth and
  // then its ECMP-selected core plane at edge bandwidth / oversub. Horizons
  // are monotone and src-indexed: concurrent partitions never share them, and
  // arrivals per directed pair stay non-decreasing (the plane choice is a
  // stable hash of the pair).
  TimeNs& uplink = uplink_busy_[static_cast<size_t>(src)];
  const TimeNs uplink_depart = std::max(depart, uplink) + WireTime(link.params, size);
  uplink = uplink_depart;
  LinkParams core = link.params;
  core.bytes_per_second = link.params.bytes_per_second / topology_.oversub;
  const int plane = EcmpPlane(src, dst, topology_.core_planes);
  TimeNs& core_horizon =
      core_busy_[static_cast<size_t>(src) * static_cast<size_t>(topology_.core_planes) +
                 static_cast<size_t>(plane)];
  const TimeNs core_depart = std::max(uplink_depart, core_horizon) + WireTime(core, size);
  core_horizon = core_depart;
  return core_depart + link.params.latency + CrossPodExtra(src, dst);
}

// --- Send paths --------------------------------------------------------------
//
// One implementation for both engines. Everything runs on the sending node's
// loop (node_loop(src)); the receiver only ever sees committed deliveries.
// All channel state (link clocks, retry timers, the win/fail decision) is
// src-local, which is what makes the reliable channel race-free without locks
// on the parallel core. Only CommitDelivery and WithdrawWinner differ between
// the engines.

void Fabric::DeliverLocal(EventLoop* loop, TimeNs receiver_delay, DeliveryFn&& cb) {
  if (receiver_delay > 0) {
    loop->ScheduleRelay(loop->now(), receiver_delay, std::move(cb));
  } else {
    loop->ScheduleAfter(0, std::move(cb));
  }
}

uint64_t Fabric::CommitDelivery(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                                TimeNs arrival, TimeNs receiver_delay, DeliveryFn&& cb,
                                bool cancellable) {
  if (capture_ != nullptr) {
    capture_->Record(src, dst, kind, size, arrival, receiver_delay);
  }
  if (ploop_ != nullptr) {
    return ploop_->ScheduleCross(src, dst, arrival, receiver_delay, std::move(cb), cancellable);
  }
  // Every serial EventId is cancellable; `cancellable` only matters above.
  if (receiver_delay > 0) {
    return loop_->ScheduleRelay(arrival, receiver_delay, std::move(cb));
  }
  return loop_->ScheduleAt(arrival, std::move(cb));
}

void Fabric::WithdrawWinner(Pending* p) {
  if (ploop_ != nullptr) {
    // Best effort: a winner still at least one window out is withdrawn at
    // the next barrier; closer than that it may still deliver (the residual
    // fail-after-transmit corner, DESIGN.md §5). Either outcome is identical
    // at every worker count.
    ploop_->CancelCross(p->src, p->winner);
    return;
  }
  // Exact: an unsettled winner has not fired yet, so this removes it.
  const bool withdrawn = loop_->Cancel(p->winner);
  FV_CHECK(withdrawn);
}

Fabric::WireFate Fabric::Transmit(NodeId src, NodeId dst, LinkState& link, TimeNs base_arrival,
                                  TimeNs now) {
  WireFate fate;
  if (plan_->LinkCut(src, dst, now) || !plan_->NodeUp(dst, base_arrival)) {
    // With per-node streams the loss lands in the sender's shard, next to
    // the drops Perturb() counts.
    FaultPlanStats& stats =
        plan_->per_node_streams() ? plan_->ShardStats(src) : plan_->mutable_stats();
    stats.messages_dropped.Add();
    return fate;
  }
  const FaultPlan::Perturbation pert = plan_->Perturb(src, dst, now);
  if (pert.drop) {
    return fate;
  }
  fate.lost = false;
  fate.arrival = std::max(base_arrival + pert.extra_delay, link.last_arrival);
  fate.duplicated = pert.duplicate;
  // The duplicate trails its original by a lag of at least 1 ns.
  fate.dup_arrival = fate.arrival + pert.duplicate_lag;
  link.last_arrival = fate.duplicated ? fate.dup_arrival : fate.arrival;
  return fate;
}

void Fabric::Send(NodeId src, NodeId dst, MsgKind kind, uint64_t size, DeliveryFn&& on_delivery,
                  TimeNs receiver_delay, DeliveryFn&& on_fail, DeliveryFn&& on_settle) {
  ValidateNode(src);
  ValidateNode(dst);
  FV_CHECK(on_delivery != nullptr);
  EventLoop* sloop = node_loop(src);
  if (src == dst) {
    DeliverLocal(sloop, receiver_delay, std::move(on_delivery));
    if (on_settle != nullptr) {
      // Loopback "arrives" instantly; settle after the delivery is queued.
      sloop->ScheduleAfter(0, std::move(on_settle));
    }
    return;
  }
  if (plan_ == nullptr) {
    LinkState& link = LinkFor(src, dst);
    StatsFor(src).Account(kind, size);
    const TimeNs arrival = WireArrival(src, dst, link, size, sloop->now());
    CommitDelivery(src, dst, kind, size, arrival, receiver_delay, std::move(on_delivery));
    if (on_settle != nullptr) {
      sloop->ScheduleAt(arrival, std::move(on_settle));
    }
    return;
  }
  auto p = std::make_shared<Pending>();
  p->src = src;
  p->dst = dst;
  p->kind = kind;
  p->size = size;
  p->receiver_delay = receiver_delay;
  p->on_delivery = std::move(on_delivery);
  p->on_fail = std::move(on_fail);
  p->on_settle = std::move(on_settle);
  Attempt(p);
}

TimeNs Fabric::GraceFor(int attempt) const {
  FV_CHECK_GE(attempt, 1);
  const int shift = std::min(attempt - 1, 20);
  return std::min(policy_.ack_grace << shift, policy_.max_grace);
}

void Fabric::Attempt(const std::shared_ptr<Pending>& p) {
  EventLoop* sloop = node_loop(p->src);
  ++p->attempts;
  const TimeNs now = sloop->now();
  if (!plan_->NodeUp(p->src, now)) {
    // The sender itself is down; nothing reaches the wire.
    Fail(p.get());
    return;
  }
  LinkState& link = LinkFor(p->src, p->dst);
  StatsFor(p->src).Account(p->kind, p->size);
  const TimeNs base_arrival = WireArrival(p->src, p->dst, link, p->size, now);
  // The retransmit clock runs against the unperturbed schedule: the sender
  // knows the link and knows when the ack should have been back.
  const TimeNs deadline = base_arrival + GraceFor(p->attempts);
  const WireFate fate = Transmit(p->src, p->dst, link, base_arrival, now);
  if (!fate.lost) {
    RetryStats& retry = RetryStatsFor(p->src);
    if (fate.duplicated) {
      // The copy's duplicate lands behind it; the receiver suppresses it.
      retry.dups_suppressed.Add(p->dst);
    }
    if (p->winner_scheduled) {
      // A retransmit copy: it lands behind the winner and is suppressed too.
      retry.dups_suppressed.Add(p->dst);
    } else if (fate.arrival <= deadline) {
      // Sealed: the first transmitted copy lands no later than its ack
      // deadline, so no timer can retransmit or fail it any more. Commit it
      // for good; the sender learns of the delivery at its arrival instant.
      CommitDelivery(p->src, p->dst, p->kind, p->size, fate.arrival, p->receiver_delay,
                     std::move(p->on_delivery));
      if (p->on_settle != nullptr) {
        sloop->ScheduleAt(fate.arrival, std::move(p->on_settle));
      }
      return;
    } else {
      // Unsealed: the retransmit clock fires first, so the send may still
      // fail. The winner stays withdrawable until a src-local marker at its
      // arrival instant settles it and stops the clock.
      p->winner_scheduled = true;
      p->winner = CommitDelivery(p->src, p->dst, p->kind, p->size, fate.arrival,
                                 p->receiver_delay, std::move(p->on_delivery),
                                 /*cancellable=*/true);
      sloop->ScheduleAt(fate.arrival, [this, p] { OnWinnerSettled(p.get()); });
    }
  }
  p->timer = sloop->ScheduleAt(deadline, [this, p] { OnRetryTimeout(p); });
}

void Fabric::OnWinnerSettled(Pending* p) {
  if (p->failed) {
    // The sender gave up before the accepted copy landed and withdrew it;
    // the receiver counts the arrival as a duplicate of a failed send.
    RetryStatsFor(p->src).dups_suppressed.Add(p->dst);
    return;
  }
  p->settled = true;
  if (p->timer != kInvalidEventId) {
    node_loop(p->src)->Cancel(p->timer);
    p->timer = kInvalidEventId;
  }
  if (p->on_settle != nullptr) {
    p->on_settle();
  }
}

void Fabric::OnRetryTimeout(const std::shared_ptr<Pending>& p) {
  p->timer = kInvalidEventId;
  FV_CHECK(!p->settled);  // the settle marker cancels any pending timer first
  RetryStats& retry = RetryStatsFor(p->src);
  retry.timeouts.Add(p->src);
  if (p->attempts >= policy_.max_attempts) {
    Fail(p.get());
  } else {
    retry.retransmits.Add(p->src);
    Attempt(p);
  }
}

void Fabric::Fail(Pending* p) {
  // Only Attempt and OnRetryTimeout get here: no timer is armed, and any
  // winner is unsettled (settling would have cancelled the timer).
  RetryStatsFor(p->src).send_failures.Add(p->src);
  p->failed = true;
  p->on_settle = nullptr;  // a failed send never settles
  if (p->winner_scheduled) {
    WithdrawWinner(p);
  }
  if (p->on_fail != nullptr) {
    // Asynchronously, so a failure surfacing inside Send() cannot reenter
    // the caller mid-construction.
    node_loop(p->src)->ScheduleAfter(0, std::move(p->on_fail));
    p->on_fail = nullptr;
  }
}

void Fabric::SendDatagram(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                          DeliveryFn&& on_delivery, TimeNs receiver_delay) {
  ValidateNode(src);
  ValidateNode(dst);
  FV_CHECK(on_delivery != nullptr);
  EventLoop* sloop = node_loop(src);
  if (src == dst) {
    DeliverLocal(sloop, receiver_delay, std::move(on_delivery));
    return;
  }
  const TimeNs now = sloop->now();
  if (plan_ != nullptr && !plan_->NodeUp(src, now)) {
    return;  // a crashed node emits nothing, and nobody is told
  }
  LinkState& link = LinkFor(src, dst);
  StatsFor(src).Account(kind, size);
  const TimeNs base_arrival = WireArrival(src, dst, link, size, now);
  if (plan_ == nullptr) {
    CommitDelivery(src, dst, kind, size, base_arrival, receiver_delay, std::move(on_delivery));
    return;
  }
  const WireFate fate = Transmit(src, dst, link, base_arrival, now);
  if (fate.lost) {
    return;
  }
  if (!fate.duplicated) {
    CommitDelivery(src, dst, kind, size, fate.arrival, receiver_delay, std::move(on_delivery));
    return;
  }
  // Duplicated datagram: the callback fires twice. InlineFunction is
  // move-only, so both copies share one heap slot; both land on dst's loop,
  // the only one that ever touches it.
  auto shared = std::make_shared<DeliveryFn>(std::move(on_delivery));
  CommitDelivery(src, dst, kind, size, fate.arrival, receiver_delay, [shared] { (*shared)(); });
  CommitDelivery(src, dst, kind, size, fate.dup_arrival, receiver_delay,
                 [shared] { (*shared)(); });
}

void Fabric::SendRequestResponse(NodeId src, NodeId dst, MsgKind kind, uint64_t req_size,
                                 uint64_t resp_size, TimeNs server_time, DeliveryFn on_response,
                                 DeliveryFn on_fail) {
  if (on_fail == nullptr) {
    Send(src, dst, kind, req_size,
         [this, src, dst, kind, resp_size, server_time, cb = std::move(on_response)]() mutable {
           // Server-side processing runs on the destination's loop (which is
           // its partition under the parallel core).
           node_loop(dst)->ScheduleAfter(server_time, [this, src, dst, kind, resp_size,
                                                       cb2 = std::move(cb)]() mutable {
             Send(dst, src, kind, resp_size, std::move(cb2));
           });
         });
    return;
  }
  // Either leg may fail, but at most one does; share the failure callback
  // across them.
  auto fail = std::make_shared<DeliveryFn>(std::move(on_fail));
  Send(
      src, dst, kind, req_size,
      [this, src, dst, kind, resp_size, server_time, fail,
       cb = std::move(on_response)]() mutable {
        node_loop(dst)->ScheduleAfter(server_time, [this, src, dst, kind, resp_size, fail,
                                                    cb2 = std::move(cb)]() mutable {
          Send(dst, src, kind, resp_size, std::move(cb2), 0, [fail] { (*fail)(); });
        });
      },
      0, [fail] { (*fail)(); });
}

}  // namespace fragvisor

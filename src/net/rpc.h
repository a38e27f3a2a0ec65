// Typed cluster messaging over the Fabric.
//
// Every subsystem that talks across nodes — DSM coherence, delegated virtio
// and accelerator I/O, checkpoint streams, heartbeats — goes through this
// layer; src/net/ is the only code that touches raw Fabric::Send. The layer
// owns three things the subsystems used to hand-roll independently:
//
//  * Call(): one reliable send with the failure bookkeeping (abort counter,
//    kFault trace record, caller continuation) expressed declaratively in
//    CallOpts instead of duplicated in per-device on_fail lambdas.
//    CallWithRetry() adds the requester-side retry loop (NodeUp check,
//    bounded exponential backoff, retry/abandon counters and traces) that
//    DSM request dispatch needs.
//  * Multicast(): one invalidation-style round over N targets with ack
//    aggregation. The default mode reproduces the classic N send + N ack
//    exchange bit-for-bit; with RpcConfig::coalesced_acks the reliable
//    channel's own delivery confirmation doubles as the protocol ack
//    (RDMA-verbs style), eliding the N explicit ack messages per round.
//  * Two deterministic QoS classes (kLatency for DSM/control traffic, kBulk
//    for checkpoint/migration page streams) arbitrated per directed link by
//    a weighted deficit-round-robin scheduler when RpcConfig::qos.enabled.
//
// Determinism guarantees: with coalescing and QoS at their defaults (off),
// every Call/Datagram/Multicast is an exact pass-through to the Fabric —
// same sends, same sizes, same event order — so golden traces stay
// bit-identical to the pre-rpc code. With either feature enabled, runs are
// still deterministic (same seed, same schedule, bit-identical counters
// across invocations); they are just a *different* deterministic schedule.

#ifndef FRAGVISOR_SRC_NET_RPC_H_
#define FRAGVISOR_SRC_NET_RPC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/event_loop.h"
#include "src/sim/state_io.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {

// Arbitration class of a message when the QoS scheduler is enabled.
// kLatency: small protocol/control messages that gate forward progress.
// kBulk: large background streams (checkpoint batches, slice migration).
enum class QosClass : uint8_t { kLatency = 0, kBulk = 1 };

inline constexpr int kNumQosClasses = 2;

const char* QosClassName(QosClass cls);

struct RpcConfig {
  // Multicast ack coalescing: treat the reliable channel's delivery
  // confirmation as the protocol ack instead of sending an explicit ack
  // message per target. Off by default (bit-identical golden traces).
  bool coalesced_acks = false;

  // Weighted deficit-round-robin link scheduler. Off by default: messages go
  // straight to the Fabric in issue order.
  struct Qos {
    bool enabled = false;
    uint32_t weights[kNumQosClasses] = {8, 1};  // kLatency : kBulk
    uint64_t quantum_bytes = 4096;              // deficit refill per visit
  } qos;
};

// Aggregate measurements of the rpc layer itself.
struct RpcStats {
  Counter calls;              // reliable sends issued (incl. retry re-issues)
  Counter datagrams;          // unreliable sends issued
  Counter call_failures;      // failure bookkeeping invocations
  Counter retries;            // CallWithRetry re-issues
  Counter abandons;           // CallWithRetry give-ups (dead requester)
  Counter notifies;           // one-way Notify() sends
  Counter multicast_rounds;
  Counter multicast_targets;
  Counter acks_coalesced;     // explicit ack messages elided by coalescing
  Counter qos_deferred;       // messages that waited in a QoS link queue

  // The field list (src/sim/state_io.h), in snapshot wire order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.calls...);
    v(s.datagrams...);
    v(s.call_failures...);
    v(s.retries...);
    v(s.abandons...);
    v(s.notifies...);
    v(s.multicast_rounds...);
    v(s.multicast_targets...);
    v(s.acks_coalesced...);
    v(s.qos_deferred...);
  }
};

class RpcLayer {
 public:
  // A delivered message, as seen by a bound handler.
  struct Inbound {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    MsgKind kind = MsgKind::kControl;
    uint64_t bytes = 0;
    uint64_t token = 0;  // caller-defined correlation value
  };
  using Handler = std::function<void(const Inbound&)>;

  // Optional per-call protocol accounting, bumped once per wire issue
  // (retransmissions by the fabric's reliable channel do NOT re-count; retry
  // re-issues by CallWithRetry DO, matching the subsystems' historic
  // accounting).
  struct ProtoAccounting {
    Counter* messages = nullptr;
    Counter* bytes = nullptr;
  };

  struct CallOpts {
    QosClass qos = QosClass::kLatency;
    TimeNs receiver_delay = 0;   // receiver-side handler cost after arrival
    uint64_t token = 0;          // delivered to bound handlers in Inbound
    ProtoAccounting* account = nullptr;

    // Failure bookkeeping, executed in order when the reliable channel gives
    // up: abort_counter->Add(1), a kFault trace of (abort_event,
    // abort_detail), then on_fail. All optional.
    Counter* abort_counter = nullptr;
    const char* abort_event = nullptr;
    const char* abort_detail = nullptr;
    EventLoop::Callback on_fail;
  };

  // Requester-side retry loop for CallWithRetry. On every fabric give-up:
  // if the source node is down the call is abandoned (abandon_counter,
  // trace_abandon, on_abandon); otherwise the attempt is re-issued after
  // min(backoff_base << min(attempts, backoff_max_shift), backoff_cap).
  struct RetrySpec {
    TimeNs backoff_base = Micros(500);
    TimeNs backoff_cap = Millis(50);
    int backoff_max_shift = 7;
    uint64_t token = 0;              // e.g. the page number, for traces
    const char* token_key = "token"; // trace label for `token`
    NodeCounterSet* retry_counter = nullptr;    // indexed by src node
    NodeCounterSet* abandon_counter = nullptr;  // indexed by src node
    const char* trace_retry = nullptr;
    const char* trace_abandon = nullptr;
  };

  struct MulticastOpts {
    MsgKind ack_kind = MsgKind::kDsmAck;
    uint64_t ack_bytes = 64;
    TimeNs receiver_delay = 0;      // per-target delivery handler cost
    TimeNs ack_receiver_delay = 0;  // per-ack handler cost back at src
    QosClass qos = QosClass::kLatency;
    ProtoAccounting* account = nullptr;
    // Invoked once per abandoned hop (copyable: a round has many hops). The
    // round never reports completion after any hop failed.
    std::function<void()> on_fail;
  };

  // On a parallel-core fabric (fabric->parallel()), pass loop == nullptr:
  // every node-local schedule/trace then goes through that node's partition
  // loop. The QoS scheduler runs per directed link on the sending node's
  // partition, coalesced multicast uses the reliable channel's sender-side
  // settle notification as the ack, and classic multicast routes ack-leg
  // failures home through the mailbox — all partition-local, so every entry
  // point works in that mode (Multicast requires opts.account == nullptr
  // there; plain caller-owned counters are not shard-safe). All Bind() calls
  // must happen before the run starts (the handler table is read
  // concurrently).
  //
  // Call, Notify, CallWithRetry and Datagram take their continuations and
  // CallOpts by reference: each callback is moved only into the event slot
  // (or retry context) that keeps it.
  RpcLayer(EventLoop* loop, Fabric* fabric, RpcConfig config = RpcConfig());

  RpcLayer(const RpcLayer&) = delete;
  RpcLayer& operator=(const RpcLayer&) = delete;

  // Registers `handler` for messages of `kind` addressed to `node` (a node of
  // the fabric) that were sent without an explicit on_done. Re-binding
  // replaces the handler.
  void Bind(NodeId node, MsgKind kind, Handler handler);

  // Reliable typed send. With default opts this is an exact pass-through to
  // Fabric::Send. A null `on_done` dispatches to the handler bound for
  // (dst, kind), if any.
  void Call(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes, EventLoop::Callback&& on_done,
            CallOpts&& opts);
  void Call(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
            EventLoop::Callback&& on_done) {
    Call(src, dst, kind, bytes, std::move(on_done), CallOpts());
  }

  // Reliable send owning the requester-side retry state machine (see
  // RetrySpec). Without a fault plan attached this degenerates to a plain
  // Call — no heap context, no retry bookkeeping. Exactly one of
  // {on_done, on_abandon} eventually runs.
  void CallWithRetry(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
                     EventLoop::Callback&& on_done, EventLoop::Callback&& on_abandon,
                     RetrySpec spec, CallOpts&& opts);

  // One-way asynchronous notification: a reliable send whose delivery needs
  // no caller continuation — delivery dispatches to the handler bound for
  // (dst, kind), if any. Used for off-critical-path protocol updates such as
  // the DSM owner-hint home notify. Failure handling is opts.on_fail, as with
  // Call; by default a lost notify is simply dropped after the retransmit
  // budget.
  void Notify(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes, CallOpts&& opts);
  void Notify(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes) {
    Notify(src, dst, kind, bytes, CallOpts());
  }

  // Unreliable send: no retries, no duplicate suppression; loss is silent
  // (heartbeats want exactly this). Bypasses the QoS scheduler — losing or
  // delaying a liveness probe behind bulk traffic would forge a failure
  // signal. A null `on_done` dispatches to the bound handler.
  void Datagram(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
                EventLoop::Callback&& on_done, TimeNs receiver_delay = 0, uint64_t token = 0);

  // One protocol round over `targets` (non-empty, distinct): delivers `kind`
  // to every target, runs `on_target` at each delivery, and runs
  // `on_all_acked` once every target has acknowledged. Default mode sends an
  // explicit ack message per target (bit-identical to N independent
  // send/ack pairs); with coalesced_acks the delivery confirmation is the
  // ack and no ack messages exist.
  void Multicast(NodeId src, const std::vector<NodeId>& targets, MsgKind kind, uint64_t bytes,
                 std::function<void(NodeId target)> on_target, EventLoop::Callback on_all_acked,
                 MulticastOpts opts);

  // --- Pass-through cluster state (subsystems no longer hold a Fabric*) ---

  bool NodeUp(NodeId node) const { return fabric_->NodeUp(node); }
  const FaultPlan* fault_plan() const { return fabric_->fault_plan(); }
  EventLoop* loop() const { return loop_; }
  Fabric* fabric() const { return fabric_; }

  const RpcConfig& config() const { return config_; }
  const RpcStats& stats() const { return stats_; }

  // Serial stats plus every per-node shard; the only complete view on a
  // parallel-core fabric.
  RpcStats MergedStats() const { return MergeShards(stats_, shards_); }

  // Snapshot restore writes counters back into the shard that owns them
  // (the serial block when shards are absent).
  RpcStats& StatsShardForRestore(NodeId node) { return S(node); }

 private:
  struct QueuedMsg {
    MsgKind kind = MsgKind::kControl;
    uint64_t size = 0;
    TimeNs receiver_delay = 0;
    Fabric::DeliveryFn on_delivery;
    Fabric::DeliveryFn on_fail;
    Fabric::DeliveryFn on_settle;  // carried through to Fabric::Send
  };

  // Per directed link: one FIFO per QoS class plus deficit-round-robin state.
  struct LinkQueue {
    std::deque<QueuedMsg> q[kNumQosClasses];
    uint64_t deficit[kNumQosClasses] = {0, 0};
    int current = 0;           // class the DRR pointer visits next
    bool pump_armed = false;   // a drain event is scheduled
    TimeNs next_free = 0;      // serialization horizon of our own sends
    // Cached fabric link parameters (stable for the fabric's lifetime):
    // saves a per-send link lookup on the dispatch and pump hot paths.
    const LinkParams* params = nullptr;
  };

  const LinkParams& LinkParamsFor(LinkQueue& lq, NodeId src, NodeId dst) {
    if (lq.params == nullptr) {
      lq.params = &fabric_->link_params(src, dst);
    }
    return *lq.params;
  }

  static void Account(ProtoAccounting* account, uint64_t bytes) {
    if (account != nullptr) {
      account->messages->Add(1);
      account->bytes->Add(bytes);
    }
  }

  // The loop `node`'s work runs on (its partition under the parallel core).
  EventLoop* NodeLoop(NodeId node) { return fabric_->node_loop(node); }

  // Stats shard of the node whose partition is executing (parallel mode), or
  // the single global block. Every counter bump must name the node it runs
  // on so shard writes stay partition-local.
  RpcStats& S(NodeId node) {
    return shards_.empty() ? stats_ : shards_[static_cast<size_t>(node)];
  }

  // Wraps opts.on_fail, in place, into the callback realizing CallOpts'
  // bookkeeping; without an abort counter or event it stays as it is. The
  // failure runs on `src`'s partition in parallel mode.
  void WrapFailure(NodeId src, CallOpts& opts);

  // Routes one reliable message: straight to the fabric, or through the
  // QoS link queues when the scheduler is enabled.
  void Dispatch(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                Fabric::DeliveryFn&& on_delivery, TimeNs receiver_delay,
                Fabric::DeliveryFn&& on_fail, QosClass qos,
                Fabric::DeliveryFn&& on_settle = nullptr);

  // Fills a null `on_done`, in place, with the bound-handler dispatch for
  // (dst, kind).
  void ResolveDelivery(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes, uint64_t token,
                       EventLoop::Callback& on_done);

  size_t HandlerIndex(NodeId node, MsgKind kind) const {
    return static_cast<size_t>(node) * static_cast<size_t>(MsgKind::kCount) +
           static_cast<size_t>(kind);
  }

  void ArmPump(NodeId src, NodeId dst, LinkQueue& lq);
  void PumpLink(NodeId src, NodeId dst);
  QueuedMsg PickNext(LinkQueue& lq);

  EventLoop* loop_;  // null on a parallel-core fabric
  Fabric* fabric_;
  RpcConfig config_;
  // Bound handlers, indexed by HandlerIndex(node, kind); null when unbound.
  std::vector<Handler> handlers_;
  std::map<std::pair<NodeId, NodeId>, LinkQueue> qos_links_;
  RpcStats stats_;
  std::vector<RpcStats> shards_;  // per-node (parallel mode only)
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_NET_RPC_H_

#include "src/net/rpc.h"

#include <algorithm>
#include <memory>
#include <string>

#include "src/sim/check.h"

namespace fragvisor {

const char* QosClassName(QosClass cls) {
  switch (cls) {
    case QosClass::kLatency:
      return "latency";
    case QosClass::kBulk:
      return "bulk";
  }
  return "unknown";
}

RpcLayer::RpcLayer(EventLoop* loop, Fabric* fabric, RpcConfig config)
    : loop_(loop), fabric_(fabric), config_(config) {
  FV_CHECK(fabric != nullptr);
  handlers_.resize(static_cast<size_t>(fabric->num_nodes()) *
                   static_cast<size_t>(MsgKind::kCount));
  if (fabric->parallel()) {
    // Per-node stats shards replace the single block. QoS link queues are
    // per directed link and a link (src, dst) is only ever pumped from src's
    // partition, so the scheduler state is partition-local by construction —
    // but the map itself must not mutate during a run (it is looked up from
    // every partition), so materialize every directed pair up front.
    shards_.resize(static_cast<size_t>(fabric->num_nodes()));
    if (config.qos.enabled) {
      for (NodeId s = 0; s < fabric->num_nodes(); ++s) {
        for (NodeId d = 0; d < fabric->num_nodes(); ++d) {
          if (s != d) {
            qos_links_[{s, d}];
          }
        }
      }
    }
  } else {
    FV_CHECK(loop != nullptr);
  }
  FV_CHECK_GT(config.qos.quantum_bytes, 0u);
  for (const uint32_t w : config.qos.weights) {
    FV_CHECK_GT(w, 0u);
  }
}

void RpcLayer::Bind(NodeId node, MsgKind kind, Handler handler) {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, fabric_->num_nodes());
  FV_CHECK(handler != nullptr);
  handlers_[HandlerIndex(node, kind)] = std::move(handler);
}

void RpcLayer::ResolveDelivery(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
                               uint64_t token, EventLoop::Callback& on_done) {
  if (on_done != nullptr) {
    return;
  }
  // Typed endpoint: the receiver's bound handler is looked up at delivery
  // time, so handlers registered after the send (but before arrival) work.
  on_done = [this, src, dst, kind, bytes, token]() {
    const Handler& handler = handlers_[HandlerIndex(dst, kind)];
    if (handler != nullptr) {
      handler(Inbound{src, dst, kind, bytes, token});
    }
  };
}

void RpcLayer::WrapFailure(NodeId src, CallOpts& opts) {
  if (opts.abort_counter == nullptr && opts.abort_event == nullptr) {
    // No declarative bookkeeping: the caller's continuation (possibly null —
    // the fabric then drops silently) goes straight through, keeping hot
    // protocol paths free of a wrapper closure.
    return;
  }
  opts.on_fail = [this, src, counter = opts.abort_counter, event = opts.abort_event,
                  detail = opts.abort_detail, on_fail = std::move(opts.on_fail)]() mutable {
    S(src).call_failures.Add(1);
    if (counter != nullptr) {
      counter->Add(1);
    }
    if (event != nullptr) {
      NodeLoop(src)->Trace(TraceCategory::kFault, event, detail != nullptr ? detail : "");
    }
    if (on_fail != nullptr) {
      on_fail();
    }
  };
}

void RpcLayer::Call(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
                    EventLoop::Callback&& on_done, CallOpts&& opts) {
  S(src).calls.Add(1);
  Account(opts.account, bytes);
  WrapFailure(src, opts);
  ResolveDelivery(src, dst, kind, bytes, opts.token, on_done);
  Dispatch(src, dst, kind, bytes, std::move(on_done), opts.receiver_delay,
           std::move(opts.on_fail), opts.qos);
}

void RpcLayer::Notify(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes, CallOpts&& opts) {
  S(src).notifies.Add(1);
  Call(src, dst, kind, bytes, nullptr, std::move(opts));
}

void RpcLayer::CallWithRetry(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
                             EventLoop::Callback&& on_done, EventLoop::Callback&& on_abandon,
                             RetrySpec spec, CallOpts&& opts) {
  if (fabric_->fault_plan() == nullptr) {
    // No failures possible: keep the hot path allocation-free.
    Call(src, dst, kind, bytes, std::move(on_done), std::move(opts));
    return;
  }
  // The retry context outlives each individual attempt; exactly one of
  // on_done / on_abandon consumes it.
  struct RetryCtx {
    EventLoop::Callback on_done;
    EventLoop::Callback on_abandon;
    RetrySpec spec;
    int attempts = 0;
  };
  auto ctx = std::make_shared<RetryCtx>();
  ctx->on_done = std::move(on_done);
  ctx->on_abandon = std::move(on_abandon);
  ctx->spec = spec;

  auto issue = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_issue = issue;
  *issue = [this, src, dst, kind, bytes, ctx, weak_issue, qos = opts.qos,
            receiver_delay = opts.receiver_delay, account = opts.account]() {
    auto self = weak_issue.lock();
    S(src).calls.Add(1);
    Account(account, bytes);
    Dispatch(
        src, dst, kind, bytes, [ctx]() { ctx->on_done(); }, receiver_delay,
        [this, src, ctx, self]() {
          const RetrySpec& s = ctx->spec;
          if (!fabric_->NodeUp(src)) {
            S(src).abandons.Add(1);
            if (s.abandon_counter != nullptr) {
              s.abandon_counter->Add(src);
            }
            if (s.trace_abandon != nullptr) {
              NodeLoop(src)->Trace(TraceCategory::kFault, s.trace_abandon, "node=", src, " ",
                                   s.token_key, "=", s.token);
            }
            if (ctx->on_abandon != nullptr) {
              ctx->on_abandon();
            }
            return;
          }
          ++ctx->attempts;
          S(src).retries.Add(1);
          if (s.retry_counter != nullptr) {
            s.retry_counter->Add(src);
          }
          if (s.trace_retry != nullptr) {
            NodeLoop(src)->Trace(TraceCategory::kFault, s.trace_retry, "node=", src, " ",
                                 s.token_key, "=", s.token, " attempt=", ctx->attempts);
          }
          const int shift = std::min(ctx->attempts, s.backoff_max_shift);
          const TimeNs backoff = std::min(s.backoff_base << shift, s.backoff_cap);
          NodeLoop(src)->ScheduleAfter(backoff, [self]() { (*self)(); });
        },
        qos);
  };
  (*issue)();
}

void RpcLayer::Datagram(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
                        EventLoop::Callback&& on_done, TimeNs receiver_delay, uint64_t token) {
  S(src).datagrams.Add(1);
  ResolveDelivery(src, dst, kind, bytes, token, on_done);
  fabric_->SendDatagram(src, dst, kind, bytes, std::move(on_done), receiver_delay);
}

void RpcLayer::Multicast(NodeId src, const std::vector<NodeId>& targets, MsgKind kind,
                         uint64_t bytes, std::function<void(NodeId target)> on_target,
                         EventLoop::Callback on_all_acked, MulticastOpts opts) {
  FV_CHECK(!targets.empty());
  FV_CHECK(on_target != nullptr);
  const bool parallel = fabric_->parallel();
  // Per-issue protocol accounting bumps caller-owned plain counters from
  // whatever partition issues the wire message; parallel rounds rely on the
  // sharded rpc/fabric stats instead.
  if (parallel) {
    FV_CHECK(opts.account == nullptr);
  }
  S(src).multicast_rounds.Add(1);

  // Shared round state: all per-hop closures reference it, keeping each one
  // small enough for the event loop's inline storage.
  struct McastCtx {
    NodeId src = kInvalidNode;
    int pending = 0;
    bool failed = false;  // a hop was abandoned; the round never completes
    MulticastOpts opts;
    std::function<void(NodeId)> on_target;
    EventLoop::Callback on_all_acked;
  };
  // Plain `new`: make_shared's construct_at can't name a function-local class.
  std::shared_ptr<McastCtx> ctx(new McastCtx());
  ctx->src = src;
  ctx->pending = static_cast<int>(targets.size());
  ctx->opts = std::move(opts);
  ctx->on_target = std::move(on_target);
  ctx->on_all_acked = std::move(on_all_acked);

  // Per-hop failure: mark the round void, then run the caller's handler
  // (which typically aborts/retries the whole transaction and guards itself
  // against running twice). A payload leg's sender is `src`, and the fabric
  // surfaces a send failure at its sender, so in parallel mode this runs on
  // src's partition — where the round state lives.
  auto hop_fail = [this, src, ctx]() {
    S(src).call_failures.Add(1);
    ctx->failed = true;
    if (ctx->opts.on_fail) {
      ctx->opts.on_fail();
    }
  };

  for (const NodeId t : targets) {
    S(src).multicast_targets.Add(1);
    S(src).calls.Add(1);
    Account(ctx->opts.account, bytes);
    if (config_.coalesced_acks) {
      if (parallel) {
        // Partition-local round state: the target's work runs at t, while
        // the countdown and failure latch are only ever touched at src —
        // the reliable channel's sender-side settle notification *is* the
        // coalesced ack, so no state crosses partitions at all.
        Dispatch(src, t, kind, bytes, [ctx, t]() { ctx->on_target(t); },
                 ctx->opts.receiver_delay, hop_fail, ctx->opts.qos,
                 /*on_settle=*/[this, src, ctx]() {
                   S(src).acks_coalesced.Add(1);
                   if (!ctx->failed && --ctx->pending == 0) {
                     ctx->on_all_acked();
                   }
                 });
        continue;
      }
      // The reliable channel's delivery confirmation is the ack: the target
      // does its work and the round bookkeeping settles without an explicit
      // ack message crossing the wire.
      Dispatch(src, t, kind, bytes,
               [this, src, t, ctx]() {
                 ctx->on_target(t);
                 S(src).acks_coalesced.Add(1);
                 if (!ctx->failed && --ctx->pending == 0) {
                   ctx->on_all_acked();
                 }
               },
               ctx->opts.receiver_delay, hop_fail, ctx->opts.qos);
      continue;
    }
    // Classic exchange, bit-identical to N independent send/ack pairs: the
    // target's work (which may itself send, e.g. a page shipped to a third
    // node) precedes its ack send, exactly as the hand-rolled rounds did.
    Dispatch(src, t, kind, bytes,
             [this, t, ctx, hop_fail]() {
               ctx->on_target(t);
               S(t).calls.Add(1);
               Account(ctx->opts.account, ctx->opts.ack_bytes);
               Fabric::DeliveryFn ack_fail = hop_fail;
               if (ParallelEventLoop* ploop = fabric_->parallel_loop()) {
                 // The ack's sender is t, so its failure surfaces on t's
                 // partition; the latch and the caller's handler live at
                 // src. Count locally, then route the round abort home
                 // through the mailbox — one lookahead out is always legal
                 // from within a window.
                 ack_fail = [this, t, ctx, ploop]() {
                   S(t).call_failures.Add(1);
                   ploop->ScheduleCross(t, ctx->src,
                                        NodeLoop(t)->now() + ploop->lookahead(), 0, [ctx]() {
                                          ctx->failed = true;
                                          if (ctx->opts.on_fail) {
                                            ctx->opts.on_fail();
                                          }
                                        });
                 };
               }
               Dispatch(t, ctx->src, ctx->opts.ack_kind, ctx->opts.ack_bytes,
                        [ctx]() {
                          if (!ctx->failed && --ctx->pending == 0) {
                            ctx->on_all_acked();
                          }
                        },
                        ctx->opts.ack_receiver_delay, std::move(ack_fail), ctx->opts.qos);
             },
             ctx->opts.receiver_delay, hop_fail, ctx->opts.qos);
  }
}

void RpcLayer::Dispatch(NodeId src, NodeId dst, MsgKind kind, uint64_t size,
                        Fabric::DeliveryFn&& on_delivery, TimeNs receiver_delay,
                        Fabric::DeliveryFn&& on_fail, QosClass qos,
                        Fabric::DeliveryFn&& on_settle) {
  // Loopback never serializes on a wire, so there is nothing to arbitrate.
  if (!config_.qos.enabled || src == dst) {
    fabric_->Send(src, dst, kind, size, std::move(on_delivery), receiver_delay,
                  std::move(on_fail), std::move(on_settle));
    return;
  }
  // All scheduler state for the link (src, dst) lives on src's clock: only
  // src's partition ever queues or pumps it in parallel mode (NodeLoop(src)
  // is the single shared loop in serial mode, so this is the same schedule
  // the serial pump always produced).
  EventLoop* sloop = NodeLoop(src);
  LinkQueue& lq = qos_links_[{src, dst}];
  if (!lq.pump_armed && sloop->now() >= lq.next_free && lq.q[0].empty() && lq.q[1].empty()) {
    // Idle link: send through immediately, tracking the serialization
    // horizon so a burst arriving behind this message queues up.
    lq.next_free = sloop->now() + WireTime(LinkParamsFor(lq, src, dst), size);
    fabric_->Send(src, dst, kind, size, std::move(on_delivery), receiver_delay,
                  std::move(on_fail), std::move(on_settle));
    return;
  }
  S(src).qos_deferred.Add(1);
  lq.q[static_cast<int>(qos)].push_back(QueuedMsg{kind, size, receiver_delay,
                                                  std::move(on_delivery), std::move(on_fail),
                                                  std::move(on_settle)});
  ArmPump(src, dst, lq);
}

void RpcLayer::ArmPump(NodeId src, NodeId dst, LinkQueue& lq) {
  if (lq.pump_armed) {
    return;
  }
  lq.pump_armed = true;
  EventLoop* sloop = NodeLoop(src);
  const TimeNs when = std::max(sloop->now(), lq.next_free);
  sloop->ScheduleAt(when, [this, src, dst]() { PumpLink(src, dst); });
}

void RpcLayer::PumpLink(NodeId src, NodeId dst) {
  LinkQueue& lq = qos_links_[{src, dst}];
  lq.pump_armed = false;
  if (lq.q[0].empty() && lq.q[1].empty()) {
    return;
  }
  QueuedMsg msg = PickNext(lq);
  lq.next_free = NodeLoop(src)->now() + WireTime(LinkParamsFor(lq, src, dst), msg.size);
  fabric_->Send(src, dst, msg.kind, msg.size, std::move(msg.on_delivery), msg.receiver_delay,
                std::move(msg.on_fail), std::move(msg.on_settle));
  if (!lq.q[0].empty() || !lq.q[1].empty()) {
    ArmPump(src, dst, lq);
  }
}

RpcLayer::QueuedMsg RpcLayer::PickNext(LinkQueue& lq) {
  // Deficit round robin, one message per drain: a class whose head fits its
  // remaining deficit sends; otherwise the deficit grows by weight * quantum
  // and the pointer rotates. Deficits reset when a class drains so an idle
  // class cannot bank unbounded credit.
  for (;;) {
    const int c = lq.current;
    if (lq.q[c].empty()) {
      lq.deficit[c] = 0;
      lq.current = (c + 1) % kNumQosClasses;
      continue;
    }
    if (lq.q[c].front().size <= lq.deficit[c]) {
      lq.deficit[c] -= lq.q[c].front().size;
      QueuedMsg msg = std::move(lq.q[c].front());
      lq.q[c].pop_front();
      return msg;
    }
    lq.deficit[c] += static_cast<uint64_t>(config_.qos.weights[c]) * config_.qos.quantum_bytes;
    if (lq.q[c].front().size <= lq.deficit[c]) {
      lq.deficit[c] -= lq.q[c].front().size;
      QueuedMsg msg = std::move(lq.q[c].front());
      lq.q[c].pop_front();
      return msg;
    }
    lq.current = (c + 1) % kNumQosClasses;
  }
}

}  // namespace fragvisor

// RpcLayer: typed endpoints, failure bookkeeping, retry state machine,
// multicast ack aggregation, and the QoS link scheduler.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/net/rpc.h"
#include "src/sim/event_loop.h"
#include "src/sim/fault_plan.h"

namespace fragvisor {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : fabric_(&loop_, 4, LinkParams::InfiniBand56G()), rpc_(&loop_, &fabric_) {}

  EventLoop loop_;
  Fabric fabric_;
  RpcLayer rpc_;
};

TEST_F(RpcTest, CallIsPassThroughToFabricSend) {
  TimeNs delivered = -1;
  rpc_.Call(0, 1, MsgKind::kControl, 7000, [&]() { delivered = loop_.now(); });
  loop_.Run();
  // Identical to Fabric::Send: 1 us serialization + 1.5 us latency.
  EXPECT_EQ(delivered, Micros(1) + Nanos(1500));
  EXPECT_EQ(fabric_.stats().messages[static_cast<size_t>(MsgKind::kControl)].value(), 1u);
  EXPECT_EQ(rpc_.stats().calls.value(), 1u);
  EXPECT_EQ(rpc_.stats().qos_deferred.value(), 0u);
}

TEST_F(RpcTest, NullDeliveryDispatchesToBoundHandler) {
  RpcLayer::Inbound seen;
  int invocations = 0;
  rpc_.Bind(1, MsgKind::kIoDoorbell, [&](const RpcLayer::Inbound& msg) {
    seen = msg;
    ++invocations;
  });
  RpcLayer::CallOpts opts;
  opts.token = 42;
  rpc_.Call(0, 1, MsgKind::kIoDoorbell, 64, nullptr, std::move(opts));
  rpc_.Datagram(2, 1, MsgKind::kIoDoorbell, 64, nullptr, /*receiver_delay=*/0, /*token=*/7);
  loop_.Run();
  EXPECT_EQ(invocations, 2);
  EXPECT_EQ(seen.src, 2);  // the datagram arrived second (same-size wire trips)
  EXPECT_EQ(seen.dst, 1);
  EXPECT_EQ(seen.kind, MsgKind::kIoDoorbell);
  EXPECT_EQ(seen.bytes, 64u);
  EXPECT_EQ(seen.token, 7u);
  EXPECT_EQ(rpc_.stats().datagrams.value(), 1u);
}

TEST_F(RpcTest, BoundHandlersAreLookedUpAtDelivery) {
  std::vector<int> seen;
  rpc_.Bind(1, MsgKind::kControl, [&](const RpcLayer::Inbound&) { seen.push_back(1); });
  rpc_.Bind(1, MsgKind::kControl, [&](const RpcLayer::Inbound&) { seen.push_back(2); });
  rpc_.Call(0, 1, MsgKind::kControl, 64, nullptr);  // the rebound handler gets it
  rpc_.Call(0, 2, MsgKind::kLease, 64, nullptr);    // bound only after the send
  rpc_.Call(0, 3, MsgKind::kLease, 64, nullptr);    // never bound: dropped
  rpc_.Bind(2, MsgKind::kLease, [&](const RpcLayer::Inbound& msg) { seen.push_back(msg.dst); });
  loop_.Run();
  EXPECT_EQ(seen, (std::vector<int>{2, 2}));
  EXPECT_EQ(rpc_.stats().calls.value(), 3u);
}

TEST_F(RpcTest, CallOptsRunFailureBookkeepingExactlyOnce) {
  FaultPlan plan(1);
  plan.CrashNode(1, 0);
  fabric_.AttachFaultPlan(&plan);
  Counter aborts;
  int on_fail_runs = 0;
  int deliveries = 0;
  RpcLayer::CallOpts opts;
  opts.abort_counter = &aborts;
  opts.abort_event = "test_abort";
  opts.abort_detail = "stage=unit";
  opts.on_fail = [&]() { ++on_fail_runs; };
  rpc_.Call(0, 1, MsgKind::kControl, 64, [&]() { ++deliveries; }, std::move(opts));
  loop_.Run();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(on_fail_runs, 1);
  EXPECT_EQ(aborts.value(), 1u);
  EXPECT_EQ(rpc_.stats().call_failures.value(), 1u);
}

TEST_F(RpcTest, CallWithRetryReissuesUntilPeerRestarts) {
  FaultPlan plan(1);
  plan.CrashNode(1, 0);
  plan.RestartNode(1, Millis(100));
  fabric_.AttachFaultPlan(&plan);
  int done = 0;
  int abandoned = 0;
  RpcLayer::RetrySpec spec;
  NodeCounterSet retries;
  retries.Init(4);
  spec.retry_counter = &retries;
  rpc_.CallWithRetry(0, 1, MsgKind::kDsmReadReq, 64, [&]() { ++done; }, [&]() { ++abandoned; },
                     spec, RpcLayer::CallOpts());
  loop_.Run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(abandoned, 0);
  EXPECT_GE(rpc_.stats().retries.value(), 1u);
  EXPECT_EQ(rpc_.stats().retries.value(), retries.total());
  EXPECT_EQ(rpc_.stats().abandons.value(), 0u);
}

TEST_F(RpcTest, CallWithRetryAbandonsWhenRequesterDies) {
  FaultPlan plan(1);
  plan.CrashNode(1, 0);          // the target never answers
  plan.CrashNode(0, Micros(1));  // ...and the requester dies while waiting
  fabric_.AttachFaultPlan(&plan);
  int done = 0;
  int abandoned = 0;
  rpc_.CallWithRetry(0, 1, MsgKind::kDsmReadReq, 64, [&]() { ++done; }, [&]() { ++abandoned; },
                     RpcLayer::RetrySpec(), RpcLayer::CallOpts());
  loop_.Run();
  EXPECT_EQ(done, 0);
  EXPECT_EQ(abandoned, 1);
  EXPECT_EQ(rpc_.stats().abandons.value(), 1u);
  EXPECT_EQ(rpc_.stats().retries.value(), 0u);
}

TEST_F(RpcTest, MulticastExplicitAcksMatchClassicExchange) {
  const std::vector<NodeId> targets = {1, 2, 3};
  std::vector<NodeId> visited;
  int completed = 0;
  rpc_.Multicast(0, targets, MsgKind::kDsmInvalidate, 64,
                 [&](NodeId t) { visited.push_back(t); }, [&]() { ++completed; },
                 RpcLayer::MulticastOpts());
  loop_.Run();
  EXPECT_EQ(visited, targets);
  EXPECT_EQ(completed, 1);
  const FabricStats& fs = fabric_.stats();
  EXPECT_EQ(fs.messages[static_cast<size_t>(MsgKind::kDsmInvalidate)].value(), 3u);
  EXPECT_EQ(fs.messages[static_cast<size_t>(MsgKind::kDsmAck)].value(), 3u);
  EXPECT_EQ(rpc_.stats().acks_coalesced.value(), 0u);
  EXPECT_EQ(rpc_.stats().multicast_rounds.value(), 1u);
  EXPECT_EQ(rpc_.stats().multicast_targets.value(), 3u);
}

TEST(RpcCoalescedTest, MulticastCoalescingElidesAckMessages) {
  EventLoop loop;
  Fabric fabric(&loop, 4, LinkParams::InfiniBand56G());
  RpcConfig config;
  config.coalesced_acks = true;
  RpcLayer rpc(&loop, &fabric, config);
  const std::vector<NodeId> targets = {1, 2, 3};
  int visited = 0;
  int completed = 0;
  rpc.Multicast(0, targets, MsgKind::kDsmInvalidate, 64, [&](NodeId) { ++visited; },
                [&]() { ++completed; }, RpcLayer::MulticastOpts());
  loop.Run();
  EXPECT_EQ(visited, 3);
  EXPECT_EQ(completed, 1);
  const FabricStats& fs = fabric.stats();
  EXPECT_EQ(fs.messages[static_cast<size_t>(MsgKind::kDsmInvalidate)].value(), 3u);
  EXPECT_EQ(fs.messages[static_cast<size_t>(MsgKind::kDsmAck)].value(), 0u);
  EXPECT_EQ(rpc.stats().acks_coalesced.value(), 3u);
}

TEST(RpcCoalescedTest, MulticastAccountsOnlyTheInvalidationsWhenCoalesced) {
  EventLoop loop;
  Fabric fabric(&loop, 4, LinkParams::InfiniBand56G());
  RpcConfig config;
  config.coalesced_acks = true;
  RpcLayer rpc(&loop, &fabric, config);
  Counter messages;
  Counter bytes;
  RpcLayer::ProtoAccounting accounting{&messages, &bytes};
  RpcLayer::MulticastOpts opts;
  opts.account = &accounting;
  rpc.Multicast(0, {1, 2}, MsgKind::kDsmInvalidate, 64, [](NodeId) {}, []() {},
                std::move(opts));
  loop.Run();
  EXPECT_EQ(messages.value(), 2u);  // explicit mode would count 2 invals + 2 acks
  EXPECT_EQ(bytes.value(), 128u);
}

TEST(RpcQosTest, DeficitSchedulerServesLatencyAheadOfQueuedBulk) {
  EventLoop loop;
  Fabric fabric(&loop, 4, LinkParams::InfiniBand56G());
  RpcConfig config;
  config.qos.enabled = true;
  RpcLayer rpc(&loop, &fabric, config);
  std::vector<MsgKind> order;
  // First send grabs the idle link; the two behind it queue while the wire is
  // busy. The bulk message was enqueued first, but the DRR pointer starts at
  // the latency class, so the small control message overtakes it.
  rpc.Call(0, 1, MsgKind::kCheckpointData, 1 << 20,
           [&]() { order.push_back(MsgKind::kCheckpointData); });
  RpcLayer::CallOpts bulk;
  bulk.qos = QosClass::kBulk;
  rpc.Call(0, 1, MsgKind::kCheckpointData, 1 << 20,
           [&]() { order.push_back(MsgKind::kCheckpointData); }, std::move(bulk));
  rpc.Call(0, 1, MsgKind::kControl, 64, [&]() { order.push_back(MsgKind::kControl); });
  loop.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], MsgKind::kCheckpointData);  // already on the wire
  EXPECT_EQ(order[1], MsgKind::kControl);         // overtakes the queued bulk
  EXPECT_EQ(order[2], MsgKind::kCheckpointData);
  EXPECT_EQ(rpc.stats().qos_deferred.value(), 2u);
}

TEST(RpcQosTest, LoopbackBypassesTheScheduler) {
  EventLoop loop;
  Fabric fabric(&loop, 4, LinkParams::InfiniBand56G());
  RpcConfig config;
  config.qos.enabled = true;
  RpcLayer rpc(&loop, &fabric, config);
  TimeNs delivered = -1;
  rpc.Call(2, 2, MsgKind::kDsmPageData, 1 << 20, [&]() { delivered = loop.now(); });
  loop.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rpc.stats().qos_deferred.value(), 0u);
}

TEST(RpcQosTest, QosKeepsBulkProgressUnderLatencyStream) {
  EventLoop loop;
  Fabric fabric(&loop, 4, LinkParams::InfiniBand56G());
  RpcConfig config;
  config.qos.enabled = true;
  RpcLayer rpc(&loop, &fabric, config);
  int bulk_done = 0;
  int latency_done = 0;
  // A long latency-class burst must not starve the bulk class: the deficit
  // counter guarantees the bulk message eventually accumulates enough credit.
  rpc.Call(0, 1, MsgKind::kControl, 4096, [&]() {});  // occupy the link
  RpcLayer::CallOpts bulk;
  bulk.qos = QosClass::kBulk;
  rpc.Call(0, 1, MsgKind::kCheckpointData, 64 << 10, [&]() { ++bulk_done; }, std::move(bulk));
  for (int i = 0; i < 32; ++i) {
    rpc.Call(0, 1, MsgKind::kControl, 4096, [&]() { ++latency_done; });
  }
  loop.Run();
  EXPECT_EQ(bulk_done, 1);
  EXPECT_EQ(latency_done, 32);
}

}  // namespace
}  // namespace fragvisor

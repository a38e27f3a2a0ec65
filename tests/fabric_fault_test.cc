// Fault-plan and reliable-channel properties of net::Fabric (tier 1):
// timeline queries, FIFO preservation under injected jitter, duplicate
// ordering and its capture records, exactly-once delivery under drops,
// give-up after max attempts, delivery across a healed partition, on_settle
// timing, give-up with the accepted copy in flight, and freeing a send still
// in flight when its loop is destroyed. Every transport case runs on each
// engine the fabric supports (ForEachEngine): the serial EventLoop, and a
// 2-partition ParallelEventLoop at 1 and at 2 workers. The empty-plan
// bit-identity guards (golden DSM trace and a full NPB harness run must not
// change by a single nanosecond when an empty FaultPlan is attached) stay on
// the serial engine.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/harness.h"
#include "src/net/capture.h"
#include "src/net/fabric.h"
#include "src/sim/event_loop.h"
#include "src/sim/fault_plan.h"
#include "src/sim/parallel_loop.h"
#include "src/workload/goldentrace.h"

namespace fragvisor {
namespace {

// A two-node InfiniBand fabric on one engine: `workers` == 0 is the serial
// EventLoop, otherwise a ParallelEventLoop with node n on partition n, run by
// that many worker threads. An optional fault plan is attached at
// construction, with the per-node draw streams the parallel fabric requires.
class TwoNodeFabric {
 public:
  explicit TwoNodeFabric(int workers, FaultPlan* plan = nullptr,
                         RetryPolicy policy = RetryPolicy()) {
    const LinkParams link = LinkParams::InfiniBand56G();
    if (workers == 0) {
      fabric_ = std::make_unique<Fabric>(&loop_, 2, link);
    } else {
      ParallelEventLoop::Options opts;
      opts.num_partitions = 2;
      opts.num_threads = workers;
      opts.lookahead = link.latency;
      ploop_ = std::make_unique<ParallelEventLoop>(opts);
      fabric_ = std::make_unique<Fabric>(ploop_.get(), 2, link);
    }
    if (plan != nullptr) {
      if (ploop_ != nullptr) {
        plan->EnablePerNodeStreams(2);
      }
      fabric_->AttachFaultPlan(plan, policy);
    }
  }

  Fabric& fabric() { return *fabric_; }

  // Runs to completion; returns the number of events dispatched.
  size_t Run() { return ploop_ != nullptr ? ploop_->Run() : loop_.Run(); }

  // Simulated time on `node`'s loop. Call it from that node's callbacks (or
  // after Run): on the parallel engine each partition has its own clock.
  TimeNs Now(NodeId node) { return fabric_->node_loop(node)->now(); }

 private:
  EventLoop loop_;
  std::unique_ptr<ParallelEventLoop> ploop_;
  std::unique_ptr<Fabric> fabric_;
};

// Runs `body(workers)` on the serial engine and on the parallel engine at 1
// and at 2 workers; a failure names the engine it happened on.
template <typename Body>
void ForEachEngine(const Body& body) {
  for (const int workers : {0, 1, 2}) {
    SCOPED_TRACE(workers == 0 ? std::string("serial engine")
                              : "parallel engine, " + std::to_string(workers) + " worker(s)");
    body(workers);
  }
}

TEST(FaultPlanTest, NodeTimelineQueries) {
  FaultPlan plan(1);
  plan.CrashNode(2, Micros(100));
  plan.RestartNode(2, Micros(300));
  EXPECT_TRUE(plan.NodeUp(2, 0));
  EXPECT_TRUE(plan.NodeUp(2, Micros(100) - 1));
  EXPECT_FALSE(plan.NodeUp(2, Micros(100)));
  EXPECT_FALSE(plan.NodeUp(2, Micros(300) - 1));
  EXPECT_TRUE(plan.NodeUp(2, Micros(300)));
  EXPECT_TRUE(plan.NodeUp(1, Micros(200)));  // other nodes unaffected

  EXPECT_EQ(plan.LastCrashBefore(2, Micros(50)), -1);
  EXPECT_EQ(plan.LastCrashBefore(2, Micros(200)), Micros(100));
  EXPECT_EQ(plan.LastCrashBefore(1, Micros(200)), -1);
}

TEST(FaultPlanTest, PartitionIsBidirectionalAndHeals) {
  FaultPlan plan(1);
  plan.PartitionLink(0, 1, Micros(10), Micros(20));
  EXPECT_FALSE(plan.LinkCut(0, 1, Micros(10) - 1));
  EXPECT_TRUE(plan.LinkCut(0, 1, Micros(10)));
  EXPECT_TRUE(plan.LinkCut(1, 0, Micros(15)));
  EXPECT_FALSE(plan.LinkCut(0, 1, Micros(20)));
  EXPECT_FALSE(plan.LinkCut(0, 2, Micros(15)));
}

TEST(FabricFaultTest, EmptyPlanGoldenTraceBitIdentical) {
  const GoldenTraceResult base = RunGoldenTrace();
  FaultPlan plan(0xFEED);
  const GoldenTraceResult with_plan = RunGoldenTrace(&plan);

  EXPECT_EQ(base.hits, with_plan.hits);
  EXPECT_EQ(base.resolved, with_plan.resolved);
  EXPECT_EQ(base.read_faults, with_plan.read_faults);
  EXPECT_EQ(base.write_faults, with_plan.write_faults);
  EXPECT_EQ(base.invalidations, with_plan.invalidations);
  EXPECT_EQ(base.page_transfers, with_plan.page_transfers);
  EXPECT_EQ(base.prefetched_pages, with_plan.prefetched_pages);
  EXPECT_EQ(base.protocol_messages, with_plan.protocol_messages);
  EXPECT_EQ(base.protocol_bytes, with_plan.protocol_bytes);
  EXPECT_EQ(base.migrated, with_plan.migrated);
  EXPECT_EQ(base.reseeded, with_plan.reseeded);
  EXPECT_EQ(base.pages_checked, with_plan.pages_checked);
  EXPECT_EQ(base.final_time, with_plan.final_time);

  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.stats().messages_dropped.value(), 0u);
  EXPECT_EQ(plan.stats().messages_duplicated.value(), 0u);
  EXPECT_EQ(plan.stats().messages_delayed.value(), 0u);
}

TEST(FabricFaultTest, EmptyPlanHarnessRunBitIdentical) {
  const NpbProfile profile = ScaleNpb(NpbByName("CG"), 0.1);

  bench::Setup plain;
  plain.vcpus = 3;
  double plain_faults = 0;
  const TimeNs plain_end = bench::RunNpbMultiProcess(plain, profile, 1, &plain_faults);

  bench::Setup with_plan = plain;
  with_plan.faults.attach_empty = true;
  double plan_faults = 0;
  bench::FaultReport report;
  const TimeNs plan_end =
      bench::RunNpbMultiProcess(with_plan, profile, 1, &plan_faults, &report);

  EXPECT_EQ(plain_end, plan_end);
  EXPECT_EQ(plain_faults, plan_faults);
  EXPECT_EQ(report, bench::FaultReport());  // every fault counter still zero
}

TEST(FabricFaultTest, FifoPreservedUnderJitter) {
  ForEachEngine([](int workers) {
    FaultPlan plan(7);
    LinkFaultProfile profile;
    profile.extra_delay_max = Micros(3);
    plan.SetDefaultLinkFaults(profile);
    TwoNodeFabric net(workers, &plan);

    constexpr int kMessages = 200;
    std::vector<int> order;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().Send(0, 1, MsgKind::kControl, 4096, [&order, i]() { order.push_back(i); });
    }
    net.Run();

    ASSERT_EQ(order.size(), static_cast<size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(i)], i) << "reordered at position " << i;
    }
    EXPECT_GT(plan.MergedStats().messages_delayed.value(), 0u);
  });
}

TEST(FabricFaultTest, DatagramFifoPreservedUnderJitter) {
  ForEachEngine([](int workers) {
    FaultPlan plan(11);
    LinkFaultProfile profile;
    profile.extra_delay_max = Micros(5);
    plan.SetDefaultLinkFaults(profile);
    TwoNodeFabric net(workers, &plan);

    constexpr int kMessages = 200;
    std::vector<int> order;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().SendDatagram(0, 1, MsgKind::kControl, 1024,
                                [&order, i]() { order.push_back(i); });
    }
    net.Run();

    ASSERT_EQ(order.size(), static_cast<size_t>(kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(i)], i);
    }
  });
}

TEST(FabricFaultTest, DuplicateNeverReordersAheadOfOriginal) {
  ForEachEngine([](int workers) {
    FaultPlan plan(13);
    LinkFaultProfile profile;
    profile.dup_prob = 1.0;  // duplicate every datagram
    plan.SetDefaultLinkFaults(profile);
    TwoNodeFabric net(workers, &plan);
    CaptureLog capture(2);
    net.fabric().SetCapture(&capture);

    constexpr int kMessages = 100;
    std::vector<int> order;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().SendDatagram(0, 1, MsgKind::kControl, 512,
                                [&order, i]() { order.push_back(i); });
    }
    net.Run();

    // Every datagram delivered twice; with the per-link FIFO clamp the
    // duplicate lands right behind its original, never ahead of it.
    ASSERT_EQ(order.size(), static_cast<size_t>(2 * kMessages));
    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(2 * i)], i);
      EXPECT_EQ(order[static_cast<size_t>(2 * i + 1)], i);
    }
    EXPECT_EQ(plan.MergedStats().messages_duplicated.value(), static_cast<uint64_t>(kMessages));
    // The capture log holds one record per committed copy (capture.h).
    EXPECT_EQ(capture.total_records(), order.size());
  });
}

TEST(FabricFaultTest, ReliableDeliveryIsExactlyOnceUnderDropsAndDups) {
  ForEachEngine([](int workers) {
    FaultPlan plan(17);
    LinkFaultProfile profile;
    profile.drop_prob = 0.3;
    profile.dup_prob = 0.3;
    profile.extra_delay_max = Micros(2);
    plan.SetDefaultLinkFaults(profile);
    TwoNodeFabric net(workers, &plan);

    constexpr int kMessages = 300;
    std::vector<int> delivered(kMessages, 0);
    int failed = 0;
    for (int i = 0; i < kMessages; ++i) {
      net.fabric().Send(0, 1, MsgKind::kControl, 2048,
                        [&delivered, i]() { ++delivered[static_cast<size_t>(i)]; }, 0,
                        [&failed]() { ++failed; });
    }
    net.Run();

    for (int i = 0; i < kMessages; ++i) {
      EXPECT_EQ(delivered[static_cast<size_t>(i)], 1) << "message " << i;
    }
    EXPECT_EQ(failed, 0);
    const RetryStats retry = net.fabric().MergedRetryStats();
    EXPECT_GT(retry.retransmits.total(), 0u);
    EXPECT_GT(retry.timeouts.total(), 0u);
    EXPECT_EQ(retry.retransmits.value(0), retry.retransmits.total());  // all charged to the sender
  });
}

TEST(FabricFaultTest, SendToCrashedNodeFailsAfterMaxAttempts) {
  ForEachEngine([](int workers) {
    FaultPlan plan(19);
    plan.CrashNode(1, 0);  // dead from the start, never restarts
    const RetryPolicy policy;
    TwoNodeFabric net(workers, &plan, policy);

    int delivered = 0;
    int failed = 0;
    net.fabric().Send(0, 1, MsgKind::kControl, 256, [&delivered]() { ++delivered; }, 0,
                      [&failed]() { ++failed; });
    net.Run();

    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(failed, 1);
    const RetryStats retry = net.fabric().MergedRetryStats();
    EXPECT_EQ(retry.send_failures.value(0), 1u);
    EXPECT_EQ(retry.timeouts.value(0), static_cast<uint64_t>(policy.max_attempts));
    EXPECT_EQ(retry.retransmits.value(0), static_cast<uint64_t>(policy.max_attempts - 1));
  });
}

TEST(FabricFaultTest, PartitionDelaysButDoesNotLoseReliableSends) {
  ForEachEngine([](int workers) {
    FaultPlan plan(23);
    // Cut 0<->1 for 2 ms starting immediately; retries carry the message over
    // the heal.
    plan.PartitionLink(0, 1, 0, Millis(2));
    TwoNodeFabric net(workers, &plan);

    int delivered = 0;
    int failed = 0;
    TimeNs delivered_at = -1;
    net.fabric().Send(0, 1, MsgKind::kControl, 256,
                      [&]() {
                        ++delivered;
                        delivered_at = net.Now(1);
                      },
                      0, [&failed]() { ++failed; });
    net.Run();

    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(failed, 0);
    EXPECT_GT(net.fabric().MergedRetryStats().retransmits.value(0), 0u);
    EXPECT_GE(delivered_at, Millis(2));  // delivery happened after the heal
  });
}

// on_settle runs exactly once per send, on the sender, at the instant the
// accepted copy arrives. Three inputs: no plan; an empty plan, whose copies
// all land before their ack deadline ("sealed"), so the channel arms no
// retransmit timer and no settle marker; and jitter well past the 200 us ack
// grace, so many first copies land after their deadline ("unsealed") and the
// retransmit clock fires before they arrive.
TEST(FabricFaultTest, SettleRunsOnceAtArrival) {
  enum class Input { kNoPlan, kSealed, kUnsealed };
  for (const Input input : {Input::kNoPlan, Input::kSealed, Input::kUnsealed}) {
    SCOPED_TRACE("input " + std::to_string(static_cast<int>(input)));
    ForEachEngine([input](int workers) {
      FaultPlan plan(29);
      if (input == Input::kUnsealed) {
        LinkFaultProfile profile;
        profile.extra_delay_max = Millis(2);
        plan.SetDefaultLinkFaults(profile);
      }
      TwoNodeFabric net(workers, input == Input::kNoPlan ? nullptr : &plan);

      constexpr size_t kMessages = 50;
      // Delivery-side vectors are touched only on node 1, settle-side ones
      // only on node 0 (different worker threads at 2 workers).
      std::vector<int> deliveries(kMessages, 0);
      std::vector<TimeNs> delivered_at(kMessages, -1);
      std::vector<int> settles(kMessages, 0);
      std::vector<TimeNs> settled_at(kMessages, -1);
      for (size_t i = 0; i < kMessages; ++i) {
        net.fabric().Send(
            0, 1, MsgKind::kControl, 1024,
            [&, i]() {
              ++deliveries[i];
              delivered_at[i] = net.Now(1);
            },
            0, nullptr,
            [&, i]() {
              ++settles[i];
              settled_at[i] = net.Now(0);
            });
      }
      const size_t events = net.Run();

      for (size_t i = 0; i < kMessages; ++i) {
        EXPECT_EQ(deliveries[i], 1) << "message " << i;
        EXPECT_EQ(settles[i], 1) << "message " << i;
        EXPECT_EQ(settled_at[i], delivered_at[i]) << "message " << i;
      }
      const RetryStats retry = net.fabric().MergedRetryStats();
      EXPECT_EQ(retry.send_failures.total(), 0u);
      if (input == Input::kUnsealed) {
        EXPECT_GT(retry.timeouts.total(), 0u);
      } else {
        // One delivery and one settle per send, and nothing else.
        EXPECT_EQ(retry.timeouts.total(), 0u);
        EXPECT_EQ(events, 2 * kMessages);
      }
    });
  }
}

// A sender that gives up while its accepted copy is still in flight: the copy
// lands far past the 200 us ack grace, and the sender crashes before its
// first timeout, so the retransmit finds it down and the send fails. on_fail
// runs once, the withdrawn copy never delivers, and its arrival counts as
// one suppressed duplicate.
TEST(FabricFaultTest, GiveUpWithWinnerInFlight) {
  ForEachEngine([](int workers) {
    FaultPlan plan(31);
    LinkFaultProfile profile;
    profile.extra_delay_max = Millis(50);
    plan.SetDefaultLinkFaults(profile);
    plan.CrashNode(0, Micros(100));
    TwoNodeFabric net(workers, &plan);

    int delivered = 0;
    int failed = 0;
    net.fabric().Send(0, 1, MsgKind::kControl, 256, [&delivered]() { ++delivered; }, 0,
                      [&failed]() { ++failed; });
    net.Run();

    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(failed, 1);
    const RetryStats retry = net.fabric().MergedRetryStats();
    EXPECT_EQ(retry.timeouts.value(0), 1u);
    EXPECT_EQ(retry.send_failures.value(0), 1u);
    EXPECT_EQ(retry.dups_suppressed.total(), 1u);
  });
}

// A run that stops with a reliable send in flight frees the send's state
// with its loop: the callbacks the channel still holds are destroyed.
TEST(FabricFaultTest, InFlightSendFreedWithItsLoop) {
  ForEachEngine([](int workers) {
    FaultPlan plan(37);
    plan.CrashNode(1, 0);  // every copy is lost, so a retransmit timer stays armed
    auto sentinel = std::make_shared<int>(0);
    {
      TwoNodeFabric net(workers, &plan);
      net.fabric().Send(0, 1, MsgKind::kControl, 256, []() {}, 0, [sentinel]() {});
      EXPECT_EQ(sentinel.use_count(), 2);  // held by the pending send's on_fail
    }  // destroyed without running
    EXPECT_EQ(sentinel.use_count(), 1);
  });
}

}  // namespace
}  // namespace fragvisor

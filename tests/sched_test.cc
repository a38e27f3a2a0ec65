#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/sched/fragbff.h"
#include "src/sim/event_loop.h"

namespace fragvisor {
namespace {

FragBffScheduler::Config TestConfig(SchedPolicy policy = SchedPolicy::kMinFragmentation) {
  FragBffScheduler::Config config;
  config.num_nodes = 4;
  config.cpus_per_node = 12;
  config.policy = policy;
  return config;
}

VmRequest Request(int id, int vcpus, TimeNs duration, TimeNs arrival = 0) {
  return VmRequest{id, vcpus, duration, arrival};
}

TEST(GenerateBurstTest, DeterministicAndWellFormed) {
  Rng rng_a(42);
  Rng rng_b(42);
  const auto a = GenerateBurst(rng_a, 100, Seconds(100));
  const auto b = GenerateBurst(rng_b, 100, Seconds(100));
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vcpus, b[i].vcpus);
    EXPECT_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_GE(a[i].vcpus, 1);
    EXPECT_LE(a[i].vcpus, 12);
    EXPECT_GT(a[i].duration, 0);
  }
  // Arrivals are monotone.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].arrival, a[i - 1].arrival);
  }
}

TEST(GenerateBurstTest, SizeMixFavorsSmallVms) {
  Rng rng(7);
  const auto burst = GenerateBurst(rng, 2000, Seconds(100));
  std::map<int, int> counts;
  for (const auto& r : burst) {
    ++counts[r.vcpus];
  }
  EXPECT_GT(counts[2] + counts[4], counts[8] + counts[12]);
}

using Alloc = std::map<NodeId, int>;

TEST(PlacementKernelTest, BestFitTakesTheTightestNodeLowestIdOnTies) {
  EXPECT_EQ(BestFit({5, 3, 8, 3}, 3), 1);  // two exact fits: the lower id
  EXPECT_EQ(BestFit({5, 4, 8, 4}, 3), 1);  // two equal leftovers: the lower id
  EXPECT_EQ(BestFit({8, 5, 6}, 5), 1);
  EXPECT_EQ(BestFit({0, 6, 0}, 6), 1);
  EXPECT_EQ(BestFit({2, 0, 1}, 3), kInvalidNode);  // fragments never fit whole
  EXPECT_EQ(BestFit({}, 1), kInvalidNode);
}

TEST(PlacementKernelTest, FillFragmentsSkipsFullNodes) {
  for (const SchedPolicy order : {SchedPolicy::kMinFragmentation, SchedPolicy::kMinNodes}) {
    EXPECT_EQ(FillFragments({0, 2, 0, 3}, 5, order), (Alloc{{1, 2}, {3, 3}}));
    EXPECT_EQ(FillFragments({0, 4, 0}, 1, order), (Alloc{{1, 1}}));
  }
}

TEST(PlacementKernelTest, FillFragmentsOrdersBySizeThenLowestId) {
  const std::vector<int> free = {3, 1, 3, 2, 1};
  // Smallest first: nodes 1 and 4 (1 each), then node 3 (2).
  EXPECT_EQ(FillFragments(free, 4, SchedPolicy::kMinFragmentation),
            (Alloc{{1, 1}, {4, 1}, {3, 2}}));
  // Largest first: node 0 (3), then 1 of node 2's equal 3.
  EXPECT_EQ(FillFragments(free, 4, SchedPolicy::kMinNodes), (Alloc{{0, 3}, {2, 1}}));
  // Both take a whole cluster's worth exactly.
  const Alloc all = {{0, 3}, {1, 1}, {2, 3}, {3, 2}, {4, 1}};
  EXPECT_EQ(FillFragments(free, 10, SchedPolicy::kMinFragmentation), all);
  EXPECT_EQ(FillFragments(free, 10, SchedPolicy::kMinNodes), all);
}

TEST(PlacementKernelTest, FillFragmentsIsEmptyWhenFragmentsHoldFewer) {
  for (const SchedPolicy order : {SchedPolicy::kMinFragmentation, SchedPolicy::kMinNodes}) {
    EXPECT_TRUE(FillFragments({1, 0, 2}, 4, order).empty());
    EXPECT_TRUE(FillFragments({0, 0}, 1, order).empty());
    EXPECT_TRUE(FillFragments({}, 1, order).empty());
  }
}

TEST(FragBffTest, SingleVmBestFit) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig());
  // Pre-fill: node 1 has exactly 4 free, node 0 has 12.
  sched.Submit(Request(100, 8, Seconds(100)));  // lands on node 0 (best fit: all equal -> node 0)
  loop.RunUntil(Nanos(1));
  EXPECT_EQ(sched.free_cpus(0), 4);
  // A 4-vCPU VM best-fits node 0's remaining 4, not an empty node.
  sched.Submit(Request(101, 4, Seconds(100)));
  loop.RunUntil(Nanos(2));
  EXPECT_EQ(sched.free_cpus(0), 0);
  EXPECT_EQ(sched.stats().placed_single.value(), 2u);
  EXPECT_EQ(sched.stats().placed_aggregate.value(), 0u);
}

TEST(FragBffTest, DepartureFreesCapacity) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig());
  sched.Submit(Request(0, 12, Seconds(10)));
  loop.RunUntil(Seconds(1));
  EXPECT_EQ(sched.total_free_cpus(), 36);
  loop.RunUntil(Seconds(11));
  EXPECT_EQ(sched.total_free_cpus(), 48);
}

TEST(FragBffTest, AggregatePlacementWhenFragmented) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig());
  // Leave 2 free CPUs on each node (4 x 10 used).
  for (int i = 0; i < 4; ++i) {
    sched.Submit(Request(i, 10, Seconds(100)));
  }
  loop.RunUntil(Nanos(1));
  EXPECT_EQ(sched.total_free_cpus(), 8);
  EXPECT_EQ(sched.fragmented_cpus(), 8);

  // A 6-vCPU VM fits nowhere whole; FragBFF aggregates 3 fragments.
  sched.Submit(Request(10, 6, Seconds(100)));
  loop.RunUntil(Nanos(2));
  EXPECT_EQ(sched.stats().placed_aggregate.value(), 1u);
  EXPECT_TRUE(sched.IsAggregate(10));
  const auto alloc = sched.AllocationOf(10);
  int total = 0;
  for (const auto& [node, count] : alloc) {
    (void)node;
    total += count;
  }
  EXPECT_EQ(total, 6);
  EXPECT_GE(alloc.size(), 3u);
}

TEST(FragBffTest, MinNodesPolicyUsesFewestFragments) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig(SchedPolicy::kMinNodes));
  // Free: node0=6, node1=4, node2=2, node3=0.
  sched.Submit(Request(0, 6, Seconds(100)));
  sched.Submit(Request(1, 8, Seconds(100)));
  sched.Submit(Request(2, 10, Seconds(100)));
  sched.Submit(Request(3, 12, Seconds(100)));
  loop.RunUntil(Nanos(1));
  ASSERT_EQ(sched.free_cpus(0), 6);
  ASSERT_EQ(sched.free_cpus(1), 4);
  ASSERT_EQ(sched.free_cpus(2), 2);
  ASSERT_EQ(sched.free_cpus(3), 0);

  sched.Submit(Request(10, 8, Seconds(100)));
  loop.RunUntil(Nanos(2));
  const auto alloc = sched.AllocationOf(10);
  // kMinNodes: 6 from node0 + 2 from node1 => 2 nodes.
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_EQ(alloc.at(0), 6);
  EXPECT_EQ(alloc.at(1), 2);
}

TEST(FragBffTest, MinFragmentationPolicyConsumesSlivers) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig(SchedPolicy::kMinFragmentation));
  // Free: node0=6, node1=4, node2=2, node3=0 (as above).
  sched.Submit(Request(0, 6, Seconds(100)));
  sched.Submit(Request(1, 8, Seconds(100)));
  sched.Submit(Request(2, 10, Seconds(100)));
  sched.Submit(Request(3, 12, Seconds(100)));
  loop.RunUntil(Nanos(1));

  sched.Submit(Request(10, 8, Seconds(100)));
  loop.RunUntil(Nanos(2));
  const auto alloc = sched.AllocationOf(10);
  // Smallest fragments first: 2 (node2) + 4 (node1) + 2 of node0.
  ASSERT_EQ(alloc.size(), 3u);
  EXPECT_EQ(alloc.at(2), 2);
  EXPECT_EQ(alloc.at(1), 4);
  EXPECT_EQ(alloc.at(0), 2);
}

TEST(FragBffTest, DelaysWhenNoCapacity) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig());
  for (int i = 0; i < 4; ++i) {
    sched.Submit(Request(i, 12, Seconds(5)));
  }
  sched.Submit(Request(10, 4, Seconds(5), Nanos(1)));
  loop.RunUntil(Seconds(1));
  EXPECT_EQ(sched.stats().delayed.value(), 1u);
  EXPECT_TRUE(sched.AllocationOf(10).empty());
  // After the blockers depart, the delayed VM runs.
  loop.RunUntil(Seconds(6));
  EXPECT_FALSE(sched.AllocationOf(10).empty());
}

TEST(FragBffTest, ConsolidationMigratesOntoSmallFragments) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig(SchedPolicy::kMinFragmentation));
  std::vector<std::tuple<int, NodeId, NodeId, int>> migrations;
  sched.set_on_migrate([&](int vm, NodeId from, NodeId to, int count) {
    migrations.emplace_back(vm, from, to, count);
  });

  // Fill all nodes except 2 CPUs on node0 and 2 on node1.
  sched.Submit(Request(0, 10, Seconds(100)));       // node0
  sched.Submit(Request(1, 10, Seconds(4)));         // node1: departs at 4s
  sched.Submit(Request(2, 12, Seconds(100)));       // node2
  sched.Submit(Request(3, 12, Seconds(100)));       // node3
  // Aggregate VM across node0+node1 leftovers (2+2).
  sched.Submit(Request(10, 4, Seconds(100), Nanos(1)));
  loop.RunUntil(Seconds(1));
  ASSERT_TRUE(sched.IsAggregate(10));
  ASSERT_EQ(sched.AllocationOf(10).size(), 2u);

  // VM 1 departs: node1 now has 10 free — a big block. The min-fragmentation
  // policy refuses to consume it for consolidation (a future arrival could
  // use it whole), so VM 10 stays split — the paper's t=222 decision.
  loop.RunUntil(Seconds(5));
  EXPECT_TRUE(sched.IsAggregate(10));
  EXPECT_TRUE(migrations.empty());
  EXPECT_EQ(sched.free_cpus(1), 10);
}

TEST(FragBffTest, MinNodesConsolidatesEagerly) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig(SchedPolicy::kMinNodes));
  int migrated_vcpus = 0;
  sched.set_on_migrate([&](int, NodeId, NodeId, int count) { migrated_vcpus += count; });

  sched.Submit(Request(0, 10, Seconds(100)));  // node0
  sched.Submit(Request(1, 10, Seconds(4)));    // node1
  sched.Submit(Request(2, 12, Seconds(100)));  // node2
  sched.Submit(Request(3, 12, Seconds(100)));  // node3
  sched.Submit(Request(10, 4, Seconds(100), Nanos(1)));  // aggregate 2@node0 + 2@node1
  loop.RunUntil(Seconds(1));
  ASSERT_TRUE(sched.IsAggregate(10));

  // VM 1 departs; min-nodes eagerly consolidates VM 10 onto one node.
  loop.RunUntil(Seconds(5));
  EXPECT_FALSE(sched.IsAggregate(10));
  EXPECT_EQ(sched.AllocationOf(10).size(), 1u);
  EXPECT_EQ(migrated_vcpus, 2);
  EXPECT_EQ(sched.stats().consolidated.value(), 1u);
}

TEST(FragBffTest, PlaceHookReportsAllocation) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig());
  std::map<int, std::map<NodeId, int>> placements;
  sched.set_on_place([&](int vm, const std::map<NodeId, int>& alloc) { placements[vm] = alloc; });
  sched.Submit(Request(0, 4, Seconds(10)));
  loop.RunUntil(Nanos(1));
  ASSERT_TRUE(placements.count(0));
  EXPECT_EQ(placements[0].size(), 1u);
}

TEST(FragBffTest, NeverOverAllocates) {
  EventLoop loop;
  FragBffScheduler sched(&loop, TestConfig());
  Rng rng(99);
  auto burst = GenerateBurst(rng, 200, Seconds(60));
  for (const auto& r : burst) {
    sched.Submit(r);
  }
  for (int step = 0; step < 120; ++step) {
    loop.RunUntil(Seconds(step));
    for (NodeId n = 0; n < 4; ++n) {
      ASSERT_GE(sched.free_cpus(n), 0);
      ASSERT_LE(sched.free_cpus(n), 12);
    }
  }
  loop.Run();
  // Everything eventually departed.
  EXPECT_EQ(sched.total_free_cpus(), 48);
}

}  // namespace
}  // namespace fragvisor

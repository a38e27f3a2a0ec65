// Regression tests for cancelling cross-partition events on the parallel
// core (companion to sim_cancel_test.cc, which covers the serial EventLoop's
// cancel semantics). A cancellable ScheduleCross hands back a CrossEventId;
// CancelCross routes the cancel through the owning partition's mailbox, so
// whether it lands depends only on simulated time — a cancel issued at least
// one window before the victim fires always wins, and the outcome is
// identical at every worker count.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/parallel_loop.h"

namespace fragvisor {
namespace {

ParallelEventLoop::Options TwoPartitions(int threads) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = threads;
  po.lookahead = 10;
  return po;
}

TEST(ParallelCancelTest, CancelBeforeDeliveryWindowIsApplied) {
  for (const int threads : {1, 2}) {
    ParallelEventLoop ploop(TwoPartitions(threads));
    bool fired = false;
    // Victim fires at t=200 on partition 1; the cancel is issued at t=20,
    // many windows earlier, so it must always land.
    ploop.partition(0)->ScheduleAt(0, [&ploop, &fired] {
      const CrossEventId id = ploop.ScheduleCross(0, 1, 200, 0, [&fired] { fired = true; },
                                                  /*cancellable=*/true);
      ploop.partition(0)->ScheduleAt(20, [&ploop, id] { ploop.CancelCross(0, id); });
    });
    ploop.Run();
    EXPECT_FALSE(fired) << "threads=" << threads;
    EXPECT_EQ(ploop.stats().cross_cancels_routed, 1u);
    EXPECT_EQ(ploop.stats().cross_cancels_applied, 1u);
    EXPECT_EQ(ploop.stats().cross_cancels_late, 0u);
  }
}

TEST(ParallelCancelTest, CancelAfterDeliveryIsLate) {
  for (const int threads : {1, 2}) {
    ParallelEventLoop ploop(TwoPartitions(threads));
    bool fired = false;
    // Victim fires at t=10 (the earliest legal cross delivery); the cancel is
    // issued at t=50, long after, so it must always be reported late.
    ploop.partition(0)->ScheduleAt(0, [&ploop, &fired] {
      const CrossEventId id = ploop.ScheduleCross(0, 1, 10, 0, [&fired] { fired = true; },
                                                  /*cancellable=*/true);
      ploop.partition(0)->ScheduleAt(50, [&ploop, id] { ploop.CancelCross(0, id); });
    });
    ploop.Run();
    EXPECT_TRUE(fired) << "threads=" << threads;
    EXPECT_EQ(ploop.stats().cross_cancels_routed, 1u);
    EXPECT_EQ(ploop.stats().cross_cancels_applied, 0u);
    EXPECT_EQ(ploop.stats().cross_cancels_late, 1u);
  }
}

TEST(ParallelCancelTest, SameWindowCancelFindsItsSchedule) {
  for (const int threads : {1, 2}) {
    ParallelEventLoop ploop(TwoPartitions(threads));
    bool fired = false;
    // Schedule and cancel in the same event: both entries drain at the same
    // barrier. Cancels are applied after schedules precisely so this works.
    ploop.partition(0)->ScheduleAt(0, [&ploop, &fired] {
      const CrossEventId id = ploop.ScheduleCross(0, 1, 500, 0, [&fired] { fired = true; },
                                                  /*cancellable=*/true);
      ploop.CancelCross(0, id);
    });
    ploop.Run();
    EXPECT_FALSE(fired) << "threads=" << threads;
    EXPECT_EQ(ploop.stats().cross_cancels_applied, 1u);
  }
}

TEST(ParallelCancelTest, CancelOnlyRemovesItsOwnEvent) {
  ParallelEventLoop ploop(TwoPartitions(2));
  std::vector<int> fired;
  ploop.partition(0)->ScheduleAt(0, [&ploop, &fired] {
    ploop.ScheduleCross(0, 1, 100, 0, [&fired] { fired.push_back(1); },
                        /*cancellable=*/true);
    const CrossEventId doomed = ploop.ScheduleCross(0, 1, 100, 0,
                                                    [&fired] { fired.push_back(2); },
                                                    /*cancellable=*/true);
    ploop.ScheduleCross(0, 1, 101, 0, [&fired] { fired.push_back(3); },
                        /*cancellable=*/true);
    ploop.partition(0)->ScheduleAt(10, [&ploop, doomed] { ploop.CancelCross(0, doomed); });
  });
  ploop.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(ParallelCancelTest, RelayedCrossEventCancelLandsBetweenHops) {
  for (const int threads : {1, 2}) {
    ParallelEventLoop ploop(TwoPartitions(threads));
    int fires = 0;
    CrossEventId id = kInvalidCrossEventId;
    ploop.partition(0)->ScheduleAt(0, [&ploop, &fires, &id] {
      // Two-phase relay: delivery hop at t=40, handler at t=240. The cancel
      // below lands at t=100 — after the delivery hop re-armed the event —
      // and must still find it, because EventIds are stable across the relay
      // re-arm.
      id = ploop.ScheduleCross(0, 1, 40, /*relay_delay=*/200, [&fires] { ++fires; },
                               /*cancellable=*/true);
    });
    ploop.partition(0)->ScheduleAt(100, [&ploop, &id] { ploop.CancelCross(0, id); });
    ploop.Run();
    EXPECT_EQ(fires, 0) << "threads=" << threads;
    EXPECT_EQ(ploop.stats().cross_cancels_applied, 1u);
    EXPECT_EQ(ploop.stats().cross_cancels_late, 0u);
  }
}

TEST(ParallelCancelTest, DeterministicAcrossWorkerCounts) {
  // A barrage of cancellable crossings with cancels racing in simulated time;
  // the survivor set must be a pure function of the configuration.
  const auto run = [](int threads) {
    ParallelEventLoop::Options po;
    po.num_partitions = 4;
    po.num_threads = threads;
    po.lookahead = 5;
    ParallelEventLoop ploop(po);
    std::vector<std::vector<int>> fired(4);
    std::vector<CrossEventId> ids(64, kInvalidCrossEventId);
    ploop.partition(0)->ScheduleAt(0, [&ploop, &fired, &ids] {
      for (int i = 0; i < 64; ++i) {
        const int dst = 1 + (i % 3);
        ids[static_cast<size_t>(i)] = ploop.ScheduleCross(
            0, dst, 5 + (i % 11) * 3, 0,
            [&fired, dst, i] { fired[static_cast<size_t>(dst)].push_back(i); },
            /*cancellable=*/true);
      }
    });
    for (int i = 0; i < 64; i += 2) {
      ploop.partition(0)->ScheduleAt(1 + (i % 29), [&ploop, &ids, i] {
        if (ids[static_cast<size_t>(i)] != kInvalidCrossEventId) {
          ploop.CancelCross(0, ids[static_cast<size_t>(i)]);
        }
      });
    }
    ploop.Run();
    std::string flat;
    for (const std::vector<int>& part : fired) {
      for (const int i : part) {
        flat += std::to_string(i);
        flat += ',';
      }
      flat += ';';
    }
    flat += "applied=" + std::to_string(ploop.stats().cross_cancels_applied);
    flat += " late=" + std::to_string(ploop.stats().cross_cancels_late);
    return flat;
  };
  const std::string t1 = run(1);
  EXPECT_EQ(t1, run(2));
  EXPECT_EQ(t1, run(3));
  EXPECT_EQ(t1, run(4));
}

}  // namespace
}  // namespace fragvisor

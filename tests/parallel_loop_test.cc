// Tier-1 determinism and correctness tests for the parallel simulation core:
// the ParallelEventLoop itself, and the DSM coherence storm run at several
// worker counts (the byte-identity contract the core is built around).

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/parallel_loop.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

// --- ParallelEventLoop unit tests -----------------------------------------

TEST(ParallelLoopTest, RunsPartitionLocalEventsInTimeOrder) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 2;
  po.lookahead = 100;
  ParallelEventLoop ploop(po);
  std::vector<int> order;
  ploop.partition(0)->ScheduleAt(30, [&order] { order.push_back(3); });
  ploop.partition(0)->ScheduleAt(10, [&order] { order.push_back(1); });
  ploop.partition(0)->ScheduleAt(20, [&order] { order.push_back(2); });
  const size_t dispatched = ploop.Run();
  EXPECT_EQ(dispatched, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ploop.stats().events_dispatched, 3u);
}

TEST(ParallelLoopTest, EachRunReturnsOnlyItsOwnEvents) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 2;
  po.lookahead = 100;
  ParallelEventLoop ploop(po);
  for (const TimeNs t : {10, 20, 30}) {
    ploop.partition(0)->ScheduleAt(t, [] {});
  }
  EXPECT_EQ(ploop.Run(), 3u);
  for (const TimeNs t : {40, 50}) {
    ploop.partition(1)->ScheduleAt(t, [] {});
  }
  EXPECT_EQ(ploop.Run(), 2u);
  EXPECT_EQ(ploop.Run(), 0u);
  EXPECT_EQ(ploop.stats().events_dispatched, 5u);
}

TEST(ParallelLoopTest, CrossEventsRespectLookahead) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 1;
  po.lookahead = 50;
  ParallelEventLoop ploop(po);
  bool delivered = false;
  TimeNs delivered_at = -1;
  ploop.partition(0)->ScheduleAt(10, [&ploop, &delivered, &delivered_at] {
    ploop.ScheduleCross(0, 1, /*when=*/10 + 50, /*relay_delay=*/0,
                        [&ploop, &delivered, &delivered_at] {
                          delivered = true;
                          delivered_at = ploop.partition(1)->now();
                        });
  });
  ploop.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(delivered_at, 60);
  EXPECT_EQ(ploop.stats().mailbox_events, 1u);
  EXPECT_GE(ploop.stats().barriers, 1u);
}

TEST(ParallelLoopTest, PingPongAcrossPartitions) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 2;
  po.lookahead = 10;
  ParallelEventLoop ploop(po);
  constexpr int kHops = 64;
  int hops = 0;
  // Mutual recursion through a heap-held lambda: each hop re-sends from the
  // side that just received.
  struct Pong {
    ParallelEventLoop* ploop;
    int* hops;
    void Hop(int side) const {
      if (*hops >= kHops) {
        return;
      }
      ++*hops;
      const TimeNs when = ploop->partition(side)->now() + 10;
      ploop->ScheduleCross(side, 1 - side, when, 0, [copy = *this, side] { copy.Hop(1 - side); });
    }
  };
  Pong pong{&ploop, &hops};
  ploop.partition(0)->ScheduleAt(0, [pong] { pong.Hop(0); });
  ploop.Run();
  EXPECT_EQ(hops, kHops);
  EXPECT_EQ(ploop.stats().mailbox_events, static_cast<uint64_t>(kHops));
}

// Every RunStats field, compared with the reference run's.
void ExpectSameStats(const ParallelEventLoop::RunStats& got,
                     const ParallelEventLoop::RunStats& want, int threads) {
  EXPECT_EQ(got.barriers, want.barriers) << "threads=" << threads;
  EXPECT_EQ(got.events_dispatched, want.events_dispatched) << "threads=" << threads;
  EXPECT_EQ(got.mailbox_events, want.mailbox_events) << "threads=" << threads;
  EXPECT_EQ(got.cross_cancels_routed, want.cross_cancels_routed) << "threads=" << threads;
  EXPECT_EQ(got.cross_cancels_applied, want.cross_cancels_applied) << "threads=" << threads;
  EXPECT_EQ(got.cross_cancels_late, want.cross_cancels_late) << "threads=" << threads;
  EXPECT_EQ(got.horizon_width_ns.count(), want.horizon_width_ns.count()) << "threads=" << threads;
  EXPECT_EQ(got.horizon_width_ns.mean(), want.horizon_width_ns.mean()) << "threads=" << threads;
  EXPECT_EQ(got.events_per_partition, want.events_per_partition) << "threads=" << threads;
}

TEST(ParallelLoopTest, IdenticalScheduleAtAnyWorkerCount) {
  // A mesh of cross-partition sends with colliding timestamps, run twice on
  // one loop; the dispatch transcript (partition, time, tag) and every
  // RunStats field must not depend on the worker count, including counts
  // that split the 8 partitions into uneven blocks. The first run ends on a
  // window that mails only a schedule and its cancel, and between the runs
  // the calling thread mails from and to that same pair of partitions: a
  // drain that left mail in an outbox at the end of a run would commit it
  // twice.
  struct Outcome {
    std::string transcript;
    ParallelEventLoop::RunStats stats;
  };
  const auto run = [](int num_threads) {
    ParallelEventLoop::Options po;
    po.num_partitions = 8;
    po.num_threads = num_threads;
    po.lookahead = 7;
    ParallelEventLoop ploop(po);
    // One transcript per partition: each is only appended from its own
    // worker, and each is deterministic on its own, so the concatenation is
    // worker-count-invariant without any cross-partition ordering claim.
    std::vector<std::vector<std::string>> transcript(8);
    struct Fan {
      ParallelEventLoop* ploop;
      std::vector<std::vector<std::string>>* transcript;
      void Send(int from, int depth) const {
        if (depth >= 3) {
          return;
        }
        for (int d = 0; d < 8; ++d) {
          if (d == from) {
            continue;
          }
          const TimeNs when = ploop->partition(from)->now() + 7 + ((from + d) % 3);
          ploop->ScheduleCross(from, d, when, 0, [copy = *this, d, depth, when] {
            (*copy.transcript)[static_cast<size_t>(d)].push_back(
                std::to_string(d) + "@" + std::to_string(when) + "#" + std::to_string(depth));
            if (d % 3 == 0) {
              copy.Send(d, depth + 1);
            }
          });
        }
      }
    };
    Fan fan{&ploop, &transcript};
    for (int p = 0; p < 8; ++p) {
      ploop.partition(p)->ScheduleAt(p % 2, [fan, p] { fan.Send(p, 0); });
    }
    // The last window of the first run, long after the fan has died out.
    ploop.partition(3)->ScheduleAt(1000, [&ploop] {
      const CrossEventId id = ploop.ScheduleCross(
          3, 5, 1100, 0, [] { ADD_FAILURE() << "cancelled event fired"; }, /*cancellable=*/true);
      ploop.CancelCross(3, id);
    });
    ploop.Run();

    int restarts = 0;
    ploop.ScheduleCross(3, 5, 2000, 0, [fan, &restarts] {
      ++restarts;
      fan.Send(5, 0);
    });
    const CrossEventId id = ploop.ScheduleCross(
        1, 6, 2000, 0, [] { ADD_FAILURE() << "cancelled event fired"; }, /*cancellable=*/true);
    EXPECT_TRUE(ploop.CancelCross(2, id));
    ploop.Run();
    EXPECT_EQ(restarts, 1) << "threads=" << num_threads;
    EXPECT_EQ(ploop.stats().cross_cancels_routed, 2u) << "threads=" << num_threads;
    EXPECT_EQ(ploop.stats().cross_cancels_applied, 2u) << "threads=" << num_threads;

    Outcome out;
    for (const std::vector<std::string>& part : transcript) {
      for (const std::string& s : part) {
        out.transcript += s;
        out.transcript += '\n';
      }
    }
    out.stats = ploop.stats();
    return out;
  };
  const Outcome ref = run(1);
  EXPECT_FALSE(ref.transcript.empty());
  for (const int threads : {2, 3, 4, 5, 8}) {
    const Outcome got = run(threads);
    EXPECT_EQ(got.transcript, ref.transcript) << "threads=" << threads;
    ExpectSameStats(got.stats, ref.stats, threads);
  }
}

TEST(ParallelLoopTest, MailPostedBetweenRunsCommitsInSourceOrder) {
  // Inside a window, mail reaches the drain in ascending source order; the
  // calling thread may post from any source in any order between runs. Each
  // destination still commits its mail in (src, FIFO) order, which fixes the
  // order of equal-time events, at every worker count.
  for (const int threads : {1, 2, 3, 4}) {
    ParallelEventLoop::Options po;
    po.num_partitions = 7;
    po.num_threads = threads;
    po.lookahead = 10;
    ParallelEventLoop ploop(po);
    std::vector<std::string> order;
    ploop.partition(0)->ScheduleAt(5, [&ploop, &order] {
      ploop.ScheduleCross(0, 2, 15, 0, [&order] { order.push_back("first run"); });
    });
    ploop.Run();
    EXPECT_EQ(order, std::vector<std::string>{"first run"}) << "threads=" << threads;

    order.clear();
    int posted = 0;
    for (const int src : {6, 4, 0, 6, 4}) {
      const std::string tag = std::to_string(src) + "#" + std::to_string(posted++);
      ploop.ScheduleCross(src, 2, 100, 0, [&order, tag] { order.push_back(tag); });
    }
    const CrossEventId id = ploop.ScheduleCross(
        5, 2, 100, 0, [] { ADD_FAILURE() << "cancelled event fired"; }, /*cancellable=*/true);
    EXPECT_TRUE(ploop.CancelCross(1, id));
    ploop.Run();
    EXPECT_EQ(order, (std::vector<std::string>{"0#2", "4#1", "4#4", "6#0", "6#3"}))
        << "threads=" << threads;
    EXPECT_EQ(ploop.stats().cross_cancels_applied, 1u) << "threads=" << threads;
  }
}

TEST(ParallelLoopTest, BarrierStressWithMoreWorkersThanCores) {
  // One token circles 64 partitions, one hop per window, so nearly every
  // window is empty and the run is barrier-bound; 8 workers oversubscribe a
  // small host, which drives waiters from yielding into sleeping. Every
  // fourth hop also mails a cancellable event and withdraws it in the same
  // window.
  static constexpr int kPartitions = 64;
  static constexpr int kHops = 12000;
  static constexpr TimeNs kLookahead = 10;
  const auto run = [](int num_threads) {
    ParallelEventLoop::Options po;
    po.num_partitions = kPartitions;
    po.num_threads = num_threads;
    po.lookahead = kLookahead;
    ParallelEventLoop ploop(po);
    struct Ring {
      ParallelEventLoop* ploop;
      int* hops;
      void Hop(int p) const {
        if (*hops == kHops) {
          return;
        }
        ++*hops;
        const TimeNs now = ploop->partition(p)->now();
        if (*hops % 4 == 0) {
          const int victim = (p + 2) % kPartitions;
          const CrossEventId id = ploop->ScheduleCross(
              p, victim, now + 5 * kLookahead, 0, [] { ADD_FAILURE() << "cancelled event fired"; },
              /*cancellable=*/true);
          ploop->CancelCross(p, id);
        }
        const int next = (p + 1) % kPartitions;
        ploop->ScheduleCross(p, next, now + kLookahead, 0,
                             [copy = *this, next] { copy.Hop(next); });
      }
    };
    // The token is one logical thread of control: it hops serially, and each
    // hop happens-after the previous one through the window barrier.
    int hops = 0;
    Ring ring{&ploop, &hops};
    ploop.partition(0)->ScheduleAt(0, [ring] { ring.Hop(0); });
    ploop.Run();
    EXPECT_EQ(hops, kHops) << "threads=" << num_threads;
    return ploop.stats();
  };
  const ParallelEventLoop::RunStats ref = run(1);
  EXPECT_GE(ref.barriers, 10000u);
  EXPECT_EQ(ref.cross_cancels_applied, static_cast<uint64_t>(kHops / 4));
  EXPECT_EQ(ref.cross_cancels_late, 0u);
  ExpectSameStats(run(8), ref, 8);
}

// --- DSM storm byte-identity across worker counts -------------------------

StormOptions SmallStorm() {
  StormOptions so;
  so.num_nodes = 16;
  so.streams_per_node = 3;
  so.accesses_per_stream = 40;
  so.pages_per_node = 32;
  so.cache_slots = 8;
  so.seed = 7;
  return so;
}

TEST(ParallelStormTest, ByteIdenticalAcrossWorkerCounts) {
  const StormOptions so = SmallStorm();
  const StormResult r1 = RunStorm(so, 1);
  const std::string ref = StormReport(r1);
  ASSERT_FALSE(ref.empty());
  EXPECT_GT(r1.totals.remote_reads, 0u);
  EXPECT_GT(r1.totals.remote_writes, 0u);
  for (const int threads : {2, 3, 4, 5, 8}) {
    const StormResult r = RunStorm(so, threads);
    EXPECT_EQ(StormReport(r), ref) << "threads=" << threads;
    // The window decomposition itself is part of the determinism contract.
    EXPECT_EQ(r.events_dispatched, r1.events_dispatched) << "threads=" << threads;
    EXPECT_EQ(r.core.barriers, r1.core.barriers) << "threads=" << threads;
    EXPECT_EQ(r.core.mailbox_events, r1.core.mailbox_events) << "threads=" << threads;
    EXPECT_EQ(r.core.events_per_partition, r1.core.events_per_partition)
        << "threads=" << threads;
  }
}

TEST(ParallelStormTest, ByteIdenticalAcrossWorkerCountsUnderFaults) {
  StormOptions so = SmallStorm();
  so.faults.link = {.drop_prob = 0.03, .dup_prob = 0.02, .extra_delay_max = Micros(3)};
  so.faults.crashes = {{5, Micros(40)}, {11, Micros(60)}};
  so.faults.restarts = {{5, Micros(120)}};
  so.faults.partitions = {{1, 9, Micros(20), Micros(90)}};
  const StormResult r1 = RunStorm(so, 1);
  const std::string ref = StormReport(r1);
  EXPECT_TRUE(r1.used_fault_plan);
  EXPECT_EQ(r1.faults.node_crashes.value(), 2u);
  EXPECT_GT(r1.faults.messages_dropped.value() + r1.faults.messages_delayed.value() +
                r1.faults.messages_duplicated.value(),
            0u);
  for (const int threads : {2, 3, 4, 5, 8}) {
    EXPECT_EQ(StormReport(RunStorm(so, threads)), ref) << "threads=" << threads;
  }
}

TEST(ParallelStormTest, SerialEngineMatchesParallelOnCommutativeConfig) {
  // With no caches and no writes, every surviving observable is a commutative
  // sum, so the serial engine and the parallel engine must agree exactly —
  // this pins the parallel Fabric/RpcLayer send paths to the serial ones.
  StormOptions so = SmallStorm();
  so.cache_slots = 0;
  so.write_frac = 0.0;
  const std::string serial = StormReport(RunStorm(so, 0));
  const std::string parallel = StormReport(RunStorm(so, 1));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelStormTest, SerialEngineMatchesParallelOnCommutativeConfigUnderFaults) {
  // Faults stay engine-identical on the commutative config because each
  // node's perturbation draws come from its own stream in its own send order.
  StormOptions so = SmallStorm();
  so.cache_slots = 0;
  so.write_frac = 0.0;
  so.faults.link = {.drop_prob = 0.05, .extra_delay_max = Micros(2)};
  const std::string serial = StormReport(RunStorm(so, 0));
  const std::string parallel = StormReport(RunStorm(so, 4));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelStormTest, StormCompletesAllAccessesWithoutFaults) {
  const StormOptions so = SmallStorm();
  const StormResult r = RunStorm(so, 2);
  const uint64_t expected = static_cast<uint64_t>(so.num_nodes) * so.streams_per_node *
                            so.accesses_per_stream;
  EXPECT_EQ(r.totals.local_accesses + r.totals.cache_hits + r.totals.remote_reads +
                r.totals.remote_writes,
            expected);
  EXPECT_EQ(r.totals.failures, 0u);
  EXPECT_EQ(r.totals.served_reads, r.totals.remote_reads);
  EXPECT_EQ(r.totals.served_writes, r.totals.remote_writes);
}

// A request token is [gpid : 40][requester : 16][stream : 8]. The widest
// configuration it carries accounts for every access; one stream more is
// refused rather than run with aliased tokens.
TEST(ParallelStormTest, RefusesConfigurationsTheRequestTokenCannotCarry) {
  StormOptions so;
  so.num_nodes = 4;
  so.streams_per_node = 256;
  so.accesses_per_stream = 20;
  const StormResult r = RunStorm(so, 0);
  EXPECT_EQ(r.totals.local_accesses + r.totals.cache_hits + r.totals.remote_reads +
                r.totals.remote_writes,
            4u * 256u * 20u);
  so.streams_per_node = 257;
  EXPECT_DEATH(RunStorm(so, 0), "streams_per_node");
}

}  // namespace
}  // namespace fragvisor

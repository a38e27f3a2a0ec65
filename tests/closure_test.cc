// Closures on the hot path: InlineFunction itself, the event loop running a
// callback in its slot, and the closure budget — how many times a
// continuation is moved on its way from the caller to the event slot that
// runs it.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/event_loop.h"
#include "src/sim/inline_function.h"
#include "src/sim/parallel_loop.h"

namespace fragvisor {
namespace {

// What happened to one callable and its moved and copied descendants.
struct Counts {
  int moves = 0;
  int copies = 0;
  int calls = 0;
  int destroyed = 0;  // destructions of the one object that was not moved from
};

// A callable that reports its moves, copies and calls to `counts`.
class Probe {
 public:
  explicit Probe(Counts* counts) : counts_(counts) {}
  Probe(Probe&& other) noexcept : counts_(other.counts_) {
    other.counts_ = nullptr;
    ++counts_->moves;
  }
  Probe(const Probe& other) : counts_(other.counts_) { ++counts_->copies; }
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (counts_ != nullptr) {
      ++counts_->destroyed;
    }
  }

  void operator()() const { ++counts_->calls; }

 private:
  Counts* counts_;
};

// A probe too large for the inline buffer: InlineFunction keeps it on the
// heap.
struct BigProbe {
  Probe probe;
  std::array<char, kInlineFunctionBytes + 64> pad{};
  void operator()() const { probe(); }
};

using Fn = InlineFunction<void()>;

// --- InlineFunction ---------------------------------------------------------

TEST(InlineFunctionTest, InlineCaptureIsDestroyedOnce) {
  Counts c;
  {
    Fn f = Probe(&c);
    Fn g = std::move(f);
    EXPECT_TRUE(f == nullptr);
    g();
  }
  EXPECT_EQ(c.calls, 1);
  EXPECT_EQ(c.destroyed, 1);
  EXPECT_EQ(c.copies, 0);
}

TEST(InlineFunctionTest, HeapCaptureIsDestroyedOnce) {
  static_assert(sizeof(BigProbe) > kInlineFunctionBytes);
  Counts c;
  {
    Fn f = BigProbe{Probe(&c)};
    Fn g = std::move(f);
    g();
  }
  EXPECT_EQ(c.calls, 1);
  EXPECT_EQ(c.destroyed, 1);
  EXPECT_EQ(c.copies, 0);
}

TEST(InlineFunctionTest, MovingAHeapCaptureStealsThePointer) {
  Counts c;
  Fn f = BigProbe{Probe(&c)};
  const int built = c.moves;
  Fn g = std::move(f);
  Fn h;
  h = std::move(g);
  EXPECT_EQ(c.moves, built);  // the capture itself never moved again
  EXPECT_TRUE(f == nullptr);
  EXPECT_TRUE(g == nullptr);
  h();
  EXPECT_EQ(c.calls, 1);
}

TEST(InlineFunctionTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(41);
  InlineFunction<int(int)> f = [p = std::move(owned)](int x) { return *p + x; };
  InlineFunction<int(int)> g = std::move(f);
  EXPECT_EQ(g(1), 42);
}

TEST(InlineFunctionTest, AssigningNullDestroysTheTarget) {
  Counts inline_counts;
  Counts heap_counts;
  Fn small = Probe(&inline_counts);
  Fn big = BigProbe{Probe(&heap_counts)};
  small = nullptr;
  big = nullptr;
  EXPECT_TRUE(small == nullptr);
  EXPECT_TRUE(big == nullptr);
  EXPECT_EQ(inline_counts.destroyed, 1);
  EXPECT_EQ(heap_counts.destroyed, 1);
  EXPECT_EQ(inline_counts.calls + heap_counts.calls, 0);
}

// --- Running a callback in its slot -----------------------------------------

TEST(InSlotDispatchTest, CallbackKeepsItsCapturesWhileSlotsGrow) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = -3; i < 0; ++i) {
    loop.ScheduleAt(20, [&order, i] { order.push_back(i); });
  }
  constexpr int kSpawned = 1500;
  std::array<uint64_t, 10> values{};
  std::iota(values.begin(), values.end(), 1);
  const std::string label = "a label long enough to live on the heap";
  uint64_t sum_after = 0;
  std::string label_after;
  loop.ScheduleAt(10, [&loop, &order, &sum_after, &label_after, values, label] {
    // Far more events than the slots allocated so far: the slot storage
    // grows while this callback runs in it.
    for (int i = 0; i < kSpawned; ++i) {
      loop.ScheduleAt(20, [&order, i] { order.push_back(i); });
    }
    sum_after = std::accumulate(values.begin(), values.end(), uint64_t{0});
    label_after = label;
  });
  EXPECT_EQ(loop.Run(), static_cast<size_t>(kSpawned + 4));
  EXPECT_EQ(sum_after, 55u);
  EXPECT_EQ(label_after, label);
  // Equal-time FIFO across the growth: the three events queued first, then
  // the spawned ones in the order they were scheduled.
  ASSERT_EQ(order.size(), static_cast<size_t>(kSpawned + 3));
  for (size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<int>(k) - 3);
  }
}

TEST(InSlotDispatchTest, CancellingTheFiringEventFails) {
  EventLoop loop;
  EventId self = kInvalidEventId;
  EventId relay_self = kInvalidEventId;
  bool cancelled = true;
  bool relay_cancelled = true;
  self = loop.ScheduleAt(5, [&] { cancelled = loop.Cancel(self); });
  relay_self = loop.ScheduleRelay(5, 10, [&] { relay_cancelled = loop.Cancel(relay_self); });
  EXPECT_EQ(loop.Run(), 3u);
  EXPECT_FALSE(cancelled);
  EXPECT_FALSE(relay_cancelled);
  // Fired handles stay stale after their slots are reused.
  int fired = 0;
  loop.ScheduleAfter(1, [&fired] { ++fired; });
  loop.ScheduleAfter(1, [&fired] { ++fired; });
  EXPECT_FALSE(loop.Cancel(self));
  EXPECT_FALSE(loop.Cancel(relay_self));
  loop.Run();
  EXPECT_EQ(fired, 2);
}

TEST(InSlotDispatchTest, CallbackIsDestroyedAfterItReturns) {
  EventLoop loop;
  Counts c;
  bool destroyed_while_running = true;
  loop.ScheduleAt(1, [&c, &destroyed_while_running, probe = Probe(&c)] {
    probe();
    destroyed_while_running = c.destroyed != 0;
  });
  loop.Run();
  EXPECT_FALSE(destroyed_while_running);
  EXPECT_EQ(c.calls, 1);
  EXPECT_EQ(c.destroyed, 1);
}

// --- Closure budget ---------------------------------------------------------
//
// Each continuation is built once and then moved only into the place that
// keeps it. These budgets are exact: a new hop that takes a callback by value
// shows up here as one more move.

TEST(ClosureBudgetTest, ScheduleAtMovesOnce) {
  EventLoop loop;
  Counts c;
  loop.ScheduleAt(10, Probe(&c));
  loop.Run();
  EXPECT_EQ(c.calls, 1);
  EXPECT_EQ(c.moves, 1);
  EXPECT_EQ(c.copies, 0);
}

TEST(ClosureBudgetTest, RpcCallMovesTwice) {
  for (const TimeNs receiver_delay : {TimeNs{0}, Nanos(300)}) {
    SCOPED_TRACE(receiver_delay);
    EventLoop loop;
    Fabric fabric(&loop, 2, LinkParams::InfiniBand56G());
    RpcLayer rpc(&loop, &fabric);
    Counts c;
    RpcLayer::CallOpts opts;
    opts.receiver_delay = receiver_delay;
    rpc.Call(0, 1, MsgKind::kControl, 64, Probe(&c), std::move(opts));
    loop.Run();
    EXPECT_EQ(c.calls, 1);
    // Into the Callback the caller passes, then into the event slot.
    EXPECT_EQ(c.moves, 2);
    EXPECT_EQ(c.copies, 0);
  }
}

TEST(ClosureBudgetTest, UnusedFailureContinuationMovesOnce) {
  EventLoop loop;
  Fabric fabric(&loop, 2, LinkParams::InfiniBand56G());
  RpcLayer rpc(&loop, &fabric);
  Counts c;
  {
    RpcLayer::CallOpts opts;
    opts.on_fail = Probe(&c);
    rpc.Call(0, 1, MsgKind::kControl, 64, [] {}, std::move(opts));
  }
  loop.Run();
  EXPECT_EQ(c.calls, 0);
  EXPECT_EQ(c.moves, 1);  // into CallOpts; no fault plan, so no further
  EXPECT_EQ(c.copies, 0);
  EXPECT_EQ(c.destroyed, 1);
}

TEST(ClosureBudgetTest, ScheduleCrossMovesThrice) {
  ParallelEventLoop::Options po;
  po.num_partitions = 2;
  po.num_threads = 1;
  po.lookahead = 100;
  ParallelEventLoop ploop(po);
  Counts c;
  ploop.ScheduleCross(0, 1, 100, 0, Probe(&c));
  ploop.Run();
  EXPECT_EQ(c.calls, 1);
  // Into the Callback, into the mail entry, into the destination's slot.
  EXPECT_EQ(c.moves, 3);
  EXPECT_EQ(c.copies, 0);
}

}  // namespace
}  // namespace fragvisor

// Conservative parallel discrete-event core.
//
// The simulation is partitioned into one EventLoop per simulated node, run by
// a small thread pool: thread t owns the contiguous block of partitions
// [floor(t * P / T), floor((t + 1) * P / T)), and thread 0 is the caller of
// Run(). Blocks keep neighbouring partitions, and the per-node state that
// other layers index by node, on one thread. Synchronization is conservative
// and null-message-free: every cross-partition interaction must arrive at
// least `lookahead` nanoseconds after it was scheduled (for Fabric traffic the
// minimum link latency provides that bound), so every thread repeatedly
//
//   1. drains the outboxes addressed to it into the queues of its partitions,
//      and publishes the earliest pending event time of its partitions,
//   2. waits at the window barrier and computes Tmin = the minimum of the
//      published times (every thread computes the same value),
//   3. executes its own partitions up to the safe horizon Tmin + lookahead,
//      appending new cross-partition events to the outbox of its thread pair,
//   4. waits at the window barrier and repeats.
//
// No event executed inside a window can schedule a cross-partition event
// inside that same window (arrival >= send_time + lookahead >= Tmin +
// lookahead = horizon), so partitions never interact intra-window and each
// window's work is embarrassingly parallel. There is no coordinator: the
// drain of a thread needs only the T outboxes addressed to it, and Tmin is a
// reduction over the threads.
//
// Mail lives in one outbox per ordered (source thread, destination thread)
// pair, T^2 in all; each entry names its source and destination partition.
// A cross-partition callback is moved only into its mail entry, built in place
// in the outbox, and from there into its slot in the destination's loop.
//
// Determinism contract: the horizon sequence is a pure function of queue
// state, each partition's queue executes in its own (time, seq) order, and
// each destination commits its mail in a fixed (src, FIFO) order, schedules
// before cancels — so commit order, and therefore every simulation output, is
// byte-identical at any worker count, including 1. Inside a window a thread
// runs its block in ascending order and only the running partition may post,
// so reading outboxes (0, t), (1, t), ... in turn yields mail in ascending
// source order; destinations share no state, so committing that sequence as
// it stands gives each its (src, FIFO) order. Mail the caller posts between
// runs may arrive in any source order; the drain notices a drop in source id
// and stable-sorts by source.
//
// Memory model: outboxes are plain (non-atomic) storage. During a window,
// outbox (s, d) is appended to only by thread s; during a drain, it is read
// and cleared only by thread d; between runs, only the calling thread appends
// and no window is open. The window barrier (an atomic arrival count plus a
// generation number; waiters yield a few rounds, then sleep on a condition
// variable) separates these phases and carries the happens-before edges, so
// the outboxes are data-race free (ThreadSanitizer-clean) without
// per-operation synchronization. With one thread the barrier does nothing.

#ifndef FRAGVISOR_SRC_SIM_PARALLEL_LOOP_H_
#define FRAGVISOR_SRC_SIM_PARALLEL_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {

// Handle for a *cancellable* cross-partition event: [src:16][dst:16][seq:32],
// seq drawn from a per-source counter. Non-cancellable cross events (the
// common case) skip token bookkeeping entirely and get kInvalidCrossEventId.
using CrossEventId = uint64_t;

inline constexpr CrossEventId kInvalidCrossEventId = 0;

class ParallelEventLoop {
 public:
  using Callback = EventLoop::Callback;

  struct Options {
    int num_partitions = 1;
    // Worker threads actually running partition windows (thread t owns the
    // block [floor(t * P / T), floor((t + 1) * P / T)); capped at
    // num_partitions). 1 = no pool: the calling thread runs every window
    // itself, with the identical windowing algorithm.
    int num_threads = 1;
    // Conservative lookahead: every ScheduleCross target must be >= the
    // current window end, which the caller guarantees by never scheduling
    // closer than `lookahead` ahead (Fabric: minimum link latency).
    TimeNs lookahead = 1;
  };

  struct RunStats {
    uint64_t barriers = 0;             // windows executed
    uint64_t events_dispatched = 0;    // across all partitions
    uint64_t mailbox_events = 0;       // cross deliveries committed
    uint64_t cross_cancels_routed = 0;
    uint64_t cross_cancels_applied = 0;
    uint64_t cross_cancels_late = 0;   // target already fired (or unknown)
    Summary horizon_width_ns;          // per-barrier horizon advance, in ns
    std::vector<uint64_t> events_per_partition;
  };

  explicit ParallelEventLoop(Options options);
  ~ParallelEventLoop();
  ParallelEventLoop(const ParallelEventLoop&) = delete;
  ParallelEventLoop& operator=(const ParallelEventLoop&) = delete;

  int num_partitions() const { return opt_.num_partitions; }
  int num_threads() const { return opt_.num_threads; }
  TimeNs lookahead() const { return opt_.lookahead; }

  // The partition-local loop. Partition-local scheduling (ScheduleAt/After/
  // Relay, Cancel) goes straight to it; during a window only the owning
  // worker thread may touch it.
  EventLoop* partition(int p) {
    FV_CHECK_GE(p, 0);
    FV_CHECK_LT(p, opt_.num_partitions);
    return &parts_[static_cast<size_t>(p)]->loop;
  }

  // Max committed partition clock (end-of-run simulated time).
  TimeNs now_max() const;

  // Schedules `cb` on partition `dst` at absolute time `when`, from partition
  // `src`. Must satisfy the lookahead contract: when >= current window end.
  // If `relay_delay` > 0 the event is committed as a ScheduleRelay (delivery
  // hop + handler hop) on the destination loop. With cancellable=false
  // (default) no token is allocated and kInvalidCrossEventId is returned;
  // with cancellable=true the returned id can be passed to CancelCross.
  //
  // May be called from the source partition's callbacks during a window, or
  // from the calling thread while no window is executing (setup).
  CrossEventId ScheduleCross(int src, int dst, TimeNs when, TimeNs relay_delay,
                             Callback&& cb, bool cancellable = false);

  // Requests cancellation of a cancellable cross event. The request is routed
  // through `from`'s outbox to the owning partition and applied at the
  // next barrier. Guaranteed to win if the target fires >= one lookahead
  // after the canceller's current time; otherwise it is best-effort (the
  // event may fire first, counted as cross_cancels_late). Returns false only
  // for a malformed handle.
  bool CancelCross(int from, CrossEventId id);

  // Runs every partition to completion. Returns the events this call
  // dispatched, as EventLoop::Run() does; stats() sums over every call.
  size_t Run();

  const RunStats& stats() const { return stats_; }

  // Snapshot serialization of the cancellable-token allocators. Restoring a
  // partition's counter keeps CrossEventId allocation identical after a
  // resume (token values feed nothing observable, but identical handles make
  // resumed and uninterrupted runs indistinguishable under a debugger too).
  // Only meaningful between runs; the committed-token maps are empty then
  // because a drained run has fired or withdrawn every cancellable event.
  uint32_t next_cancellable_token(int p) {
    FV_CHECK_GE(p, 0);
    FV_CHECK_LT(p, opt_.num_partitions);
    return parts_[static_cast<size_t>(p)]->next_token;
  }
  void RestoreCancellableToken(int p, uint32_t token) {
    FV_CHECK_GE(p, 0);
    FV_CHECK_LT(p, opt_.num_partitions);
    FV_CHECK(!running_);
    parts_[static_cast<size_t>(p)]->next_token = token;
  }

 private:
  // One mailbox entry: a cross schedule (cb != nullptr) or a cross cancel
  // (cb == nullptr, token identifies the victim). Partition ids fit 16 bits
  // (checked by the constructor), which keeps the entry at 176 bytes.
  struct MailEntry {
    MailEntry(CrossEventId t, TimeNs w, TimeNs r, int s, int d, bool c, Callback&& f)
        : token(t),
          when(w),
          relay(r),
          src(static_cast<uint16_t>(s)),
          dst(static_cast<uint16_t>(d)),
          cancel(c),
          cb(std::move(f)) {}

    CrossEventId token;
    TimeNs when;
    TimeNs relay;
    uint16_t src;
    uint16_t dst;
    bool cancel;  // true: withdraw `token` instead of scheduling `cb`
    Callback cb;
  };

  // The mail from one thread's partitions to another's (see the memory-model
  // note above). One cache line per header, so appends on one thread do not
  // invalidate the headers another thread appends to or clears.
  struct alignas(64) Outbox {
    std::vector<MailEntry> entries;
  };

  struct Partition {
    EventLoop loop;
    uint32_t next_token = 1;  // per-source cancellable-event counter
    // Committed-but-unfired cancellable events owned by this (dst) partition.
    // Values may go stale after the event fires; EventLoop::Cancel rejects
    // stale handles via slot generations, which is how "late" is detected.
    std::unordered_map<CrossEventId, EventId> cancellable;
    uint64_t dispatched = 0;
    // As a destination: drain counters, summed into RunStats by Run().
    uint64_t mailbox_events = 0;
    uint64_t cancels_routed = 0;
    uint64_t cancels_applied = 0;
    uint64_t cancels_late = 0;
  };

  // Per-thread window state; one cache line each, so publishing a time does
  // not invalidate the slots of the other threads.
  struct alignas(64) ThreadState {
    // Earliest pending event of the thread's partitions after its drain.
    TimeNs next_event_time = EventLoop::kNoPendingEvent;
    // End of the window the thread is executing (or executed last).
    TimeNs horizon = 0;
    std::vector<MailEntry*> mail;  // drain scratch, in commit order
  };

  // The first partition of thread t's block; thread t runs [First(t),
  // First(t + 1)).
  int First(int t) const {
    return static_cast<int>(int64_t{t} * opt_.num_partitions / opt_.num_threads);
  }
  // The thread whose block holds partition p: the largest t with First(t) <= p.
  int Owner(int p) const {
    return static_cast<int>((int64_t{p + 1} * opt_.num_threads - 1) / opt_.num_partitions);
  }
  Outbox& OutboxFor(int from_thread, int to_thread) {
    return outbox_[static_cast<size_t>(from_thread * opt_.num_threads + to_thread)];
  }

  // Appends an entry, built in place, to the outbox from src's owner to dst's.
  void Post(int src, int dst, CrossEventId token, TimeNs when, TimeNs relay, bool cancel,
            Callback&& cb);
  // Commits the mail addressed to partitions owned by `thread_index`:
  // schedules first, then cancels, each destination's in (src, FIFO) order.
  void Drain(int thread_index);
  // The window loop of `thread_index` for one Run(): returns once no
  // partition has a pending event.
  void RunThread(int thread_index);
  void WorkerMain(int thread_index);
  // Generation barrier over all num_threads threads; a no-op for one thread.
  void Barrier();

  Options opt_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<Outbox> outbox_;  // [from_thread * T + to_thread]
  std::vector<ThreadState> threads_;
  RunStats stats_;
  bool running_ = false;

  // Barrier state. The last thread to arrive resets arrived_ and bumps
  // generation_ under mu_, so a thread sleeping on cv_ cannot miss the bump.
  std::atomic<int> arrived_{0};
  std::atomic<uint64_t> generation_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  // Written by the destructor before the barrier that releases the workers.
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_PARALLEL_LOOP_H_

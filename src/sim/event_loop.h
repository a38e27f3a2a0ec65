// Deterministic discrete-event loop.
//
// The entire simulation — pCPU scheduling, DSM protocol messages, device
// notifications, scheduler arrivals — is driven by one single-threaded event
// loop. Events at equal timestamps fire in insertion order (stable sequence
// numbers), so runs are bit-reproducible.
//
// Implementation: a 4-ary indexed min-heap over a slot arena. The heap holds
// 4-byte slot indices (sift operations move indices, not callbacks); each
// slot carries a generation counter, so Cancel() is a true O(log n) removal
// validated against stale handles — no tombstone set, no lazy-pop scans, and
// a handle for an event that already fired is simply rejected. Callbacks are
// InlineFunction, so scheduling does not heap-allocate for captures up to
// kInlineFunctionBytes.

#ifndef FRAGVISOR_SRC_SIM_EVENT_LOOP_H_
#define FRAGVISOR_SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/inline_function.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace fragvisor {

// Opaque handle for a scheduled event, usable with Cancel(). Encodes the
// arena slot and its generation; handles of fired or cancelled events go
// stale automatically.
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class EventLoop {
 public:
  using Callback = InlineFunction<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time. Starts at 0.
  TimeNs now() const { return now_; }

  // Schedules `cb` to run at absolute simulated time `when` (>= now()).
  EventId ScheduleAt(TimeNs when, Callback cb);

  // Schedules `cb` to run `delay` nanoseconds from now (delay >= 0).
  EventId ScheduleAfter(TimeNs delay, Callback cb) { return ScheduleAt(now_ + delay, std::move(cb)); }

  // Schedules a two-phase event: it first fires at `when` as a plain
  // time-advancing hop (a message delivery), then re-arms itself for
  // `relay_delay` later — taking its place in FIFO order as if it had been
  // scheduled from inside a delivery callback — and runs `cb` on the second
  // firing. This models "deliver, then pay a handler cost on the receiver"
  // without nesting one callback inside another.
  EventId ScheduleRelay(TimeNs when, TimeNs relay_delay, Callback cb);

  // Cancels a pending event. Returns false if the event already ran, was
  // already cancelled, or never existed.
  bool Cancel(EventId id);

  // Runs events until the queue is empty or Stop() is called.
  // Returns the number of events dispatched.
  size_t Run();

  // Runs events with timestamp <= `deadline`; afterwards now() == deadline
  // (unless Stop() was called or the queue drained earlier, in which case
  // now() is the time of the last event dispatched).
  size_t RunUntil(TimeNs deadline);

  // Runs events with timestamp strictly < `horizon`; now() is left at the
  // last dispatched event (no artificial advance). This is the window
  // primitive of the conservative parallel core (ParallelEventLoop): a
  // partition executes exactly the events that no cross-partition message
  // can still preempt.
  size_t RunBelow(TimeNs horizon);

  // Timestamp of the earliest pending event, or kNoPendingEvent when empty.
  static constexpr TimeNs kNoPendingEvent = INT64_MAX;
  TimeNs next_event_time() const {
    return heap_.empty() ? kNoPendingEvent : slots_[heap_[0]].time;
  }

  // Runs for `duration` of simulated time from now().
  size_t RunFor(TimeNs duration) { return RunUntil(now_ + duration); }

  // Dispatches events while `keep_going()` returns true and events with
  // timestamp <= deadline remain. Unlike RunUntil, now() is left at the last
  // dispatched event when the predicate flips (no artificial advance).
  size_t RunWhile(const std::function<bool()>& keep_going, TimeNs deadline);

  // Makes Run()/RunUntil() return after the currently dispatching event.
  void Stop() { stopped_ = true; }

  // Snapshot restore: jumps the clock forward on an EMPTY loop. A loaded
  // snapshot re-creates each loop at its saved simulated time; requiring the
  // queue to be drained keeps this from ever reordering pending events.
  void AdvanceTo(TimeNs t) {
    FV_CHECK(heap_.empty());
    FV_CHECK_GE(t, now_);
    now_ = t;
  }

  bool empty() const { return heap_.empty(); }
  size_t pending_count() const { return heap_.size(); }

  // Optional tracer: subsystems holding a loop pointer emit events through
  // it. Null (the default) disables all instrumentation.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  // Records `event` if a tracer is attached and the category enabled. The
  // detail comes as parts (numbers and C strings, see trace.h), formatted
  // only once both checks pass: an idle trace point builds no string.
  template <typename... Parts>
  void Trace(uint32_t category, const char* event, const Parts&... parts) {
    if (tracer_ != nullptr && tracer_->enabled(category)) {
      tracer_->Record(now_, category, event, FormatTraceDetail(parts...));
    }
  }

 private:
  static constexpr uint32_t kNpos = 0xffffffffu;

  struct Slot {
    TimeNs time = 0;
    uint64_t seq = 0;        // FIFO tiebreak among equal times
    TimeNs relay = 0;        // pending second phase (0 = plain event)
    uint32_t gen = 0;        // bumped whenever the slot is freed
    uint32_t heap_pos = kNpos;
    uint32_t next_free = kNpos;
    Callback cb;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  // (time, seq) strict weak order over slot indices; seq is unique, so this
  // is a total order and FIFO among equal timestamps.
  bool Earlier(uint32_t a, uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    return x.time != y.time ? x.time < y.time : x.seq < y.seq;
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t s);
  void HeapPush(uint32_t s);
  void HeapRemoveAt(size_t pos);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  // Pops and dispatches the next event. Returns false if none remain.
  bool DispatchOne();

  Tracer* tracer_ = nullptr;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
  std::vector<Slot> slots_;
  std::vector<uint32_t> heap_;  // slot indices, 4-ary min-heap on (time, seq)
  uint32_t free_head_ = kNpos;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_EVENT_LOOP_H_

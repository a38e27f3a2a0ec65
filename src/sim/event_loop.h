// Deterministic discrete-event loop.
//
// The entire simulation — pCPU scheduling, DSM protocol messages, device
// notifications, scheduler arrivals — is driven by one single-threaded event
// loop. Events at equal timestamps fire in insertion order (stable sequence
// numbers), so runs are bit-reproducible.
//
// Implementation: a 4-ary indexed min-heap over a slot arena. Each heap entry
// carries its event's (time, seq) key and slot index, so sifting compares and
// moves 24-byte keys and never reads a slot; heap positions live in their own
// array. Each slot carries a generation counter, so Cancel() is a true
// O(log n) removal validated against stale handles — no tombstone set, no
// lazy-pop scans, and a handle for an event that already fired is simply
// rejected. Callbacks are InlineFunction, so scheduling does not
// heap-allocate for captures up to kInlineFunctionBytes, and each one is
// built once: the Schedule calls take the callable by forwarding reference
// and construct it in its slot, and dispatch runs it there. Slots live in
// chunks that never move (8 slots, then each chunk twice the last), so a
// running callback may schedule freely while its own captures stay put. A
// slot is built on first use, so a chunk's unused tail is never touched.

#ifndef FRAGVISOR_SRC_SIM_EVENT_LOOP_H_
#define FRAGVISOR_SRC_SIM_EVENT_LOOP_H_

#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
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
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time. Starts at 0.
  TimeNs now() const { return now_; }

  // Schedules `f` (a callable, or a non-null Callback) to run at absolute
  // simulated time `when` (>= now()). The callback is built in its slot: a
  // lambda is moved once, a Callback&& is moved once.
  template <typename F>
  EventId ScheduleAt(TimeNs when, F&& f) {
    return Insert(when, 0, std::forward<F>(f));
  }

  // Schedules `f` to run `delay` nanoseconds from now (delay >= 0).
  template <typename F>
  EventId ScheduleAfter(TimeNs delay, F&& f) {
    return Insert(now_ + delay, 0, std::forward<F>(f));
  }

  // Schedules a two-phase event: it first fires at `when` as a plain
  // time-advancing hop (a message delivery), then re-arms itself for
  // `relay_delay` later — taking its place in FIFO order as if it had been
  // scheduled from inside a delivery callback — and runs `cb` on the second
  // firing. This models "deliver, then pay a handler cost on the receiver"
  // without nesting one callback inside another.
  template <typename F>
  EventId ScheduleRelay(TimeNs when, TimeNs relay_delay, F&& f) {
    FV_CHECK_GE(relay_delay, 0);
    return Insert(when, relay_delay, std::forward<F>(f));
  }

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
    return heap_.empty() ? kNoPendingEvent : heap_[0].time;
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
  // Slot chunk c holds kFirstChunk << c slots. Small first chunks keep a
  // shallow queue small: each parallel partition owns one loop.
  static constexpr uint32_t kFirstChunkLog2 = 3;
  static constexpr uint32_t kFirstChunk = 1u << kFirstChunkLog2;

  struct Slot {
    Callback cb;
    TimeNs relay = 0;   // pending second phase (0 = plain event)
    uint32_t gen = 0;   // bumped when the event fires or is cancelled
    uint32_t next_free = kNpos;
  };

  // One heap entry: the event's sort key and its slot.
  struct Key {
    TimeNs time = 0;
    uint64_t seq = 0;  // FIFO tiebreak among equal times
    uint32_t slot = 0;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (slot + 1);
  }

  // (time, seq) strict weak order; seq is unique, so this is a total order
  // and FIFO among equal timestamps.
  static bool Earlier(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  // Slot s lives in chunk c = floor(log2(s + kFirstChunk)) - kFirstChunkLog2.
  Slot& SlotAt(uint32_t s) {
    const uint32_t biased = s + kFirstChunk;
    const int chunk = std::bit_width(biased) - 1 - static_cast<int>(kFirstChunkLog2);
    return chunks_[static_cast<size_t>(chunk)][biased - (kFirstChunk << chunk)];
  }

  template <typename F>
  EventId Insert(TimeNs when, TimeNs relay, F&& f) {
    FV_CHECK_GE(when, now_);
    const uint32_t s = AllocSlot();
    Slot& sl = SlotAt(s);
    sl.cb = std::forward<F>(f);
    FV_CHECK(sl.cb != nullptr);
    sl.relay = relay;
    HeapPush(Key{when, next_seq_++, s});
    return MakeId(s, sl.gen);
  }

  uint32_t AllocSlot();
  // Destroys the slot's callback and puts the slot on the free list.
  void FreeSlot(uint32_t s);
  void HeapPush(const Key& key);
  void HeapRemoveAt(size_t pos);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  // Pops and dispatches the next event. Returns false if none remain.
  bool DispatchOne();

  Tracer* tracer_ = nullptr;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  bool stopped_ = false;
  std::vector<Slot*> chunks_;        // raw storage, slots built on first use
  std::vector<uint32_t> heap_pos_;  // per allocated slot; kNpos when not queued
  std::vector<Key> heap_;           // 4-ary min-heap on (time, seq)
  uint32_t free_head_ = kNpos;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_EVENT_LOOP_H_

#include "src/sim/event_loop.h"

#include <new>
#include <utility>

namespace fragvisor {

EventLoop::~EventLoop() {
  for (uint32_t s = 0; s < heap_pos_.size(); ++s) {
    SlotAt(s).~Slot();
  }
  for (Slot* chunk : chunks_) {
    ::operator delete(chunk);
  }
}

uint32_t EventLoop::AllocSlot() {
  if (free_head_ != kNpos) {
    const uint32_t s = free_head_;
    free_head_ = SlotAt(s).next_free;
    return s;
  }
  // Chunks 0..c-1 hold kFirstChunk * (2^c - 1) slots. A full arena gets a
  // new chunk, twice the last; existing slots never move.
  const auto s = static_cast<uint32_t>(heap_pos_.size());
  const size_t next_chunk = size_t{kFirstChunk} << chunks_.size();
  if (s == next_chunk - kFirstChunk) {
    chunks_.push_back(static_cast<Slot*>(::operator new(next_chunk * sizeof(Slot))));
  }
  ::new (&SlotAt(s)) Slot;
  heap_pos_.push_back(kNpos);
  return s;
}

void EventLoop::FreeSlot(uint32_t s) {
  Slot& sl = SlotAt(s);
  sl.cb = nullptr;
  sl.next_free = free_head_;
  free_head_ = s;
}

void EventLoop::SiftUp(size_t pos) {
  const Key k = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) >> 2;
    if (!Earlier(k, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos].slot] = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = k;
  heap_pos_[k.slot] = static_cast<uint32_t>(pos);
}

void EventLoop::SiftDown(size_t pos) {
  const Key k = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = pos * 4 + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    const size_t last = first + 4 < n ? first + 4 : n;
    for (size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], k)) {
      break;
    }
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot] = static_cast<uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = k;
  heap_pos_[k.slot] = static_cast<uint32_t>(pos);
}

void EventLoop::HeapPush(const Key& key) {
  heap_.push_back(key);
  SiftUp(heap_.size() - 1);
}

void EventLoop::HeapRemoveAt(size_t pos) {
  heap_pos_[heap_[pos].slot] = kNpos;
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    heap_[pos] = last;
    SiftUp(pos);
    SiftDown(heap_pos_[last.slot]);
  }
}

bool EventLoop::Cancel(EventId id) {
  const uint32_t raw = static_cast<uint32_t>(id & 0xffffffffu);
  if (raw == 0 || raw > heap_pos_.size()) {
    return false;
  }
  const uint32_t s = raw - 1;
  Slot& sl = SlotAt(s);
  if (sl.gen != static_cast<uint32_t>(id >> 32) || heap_pos_[s] == kNpos) {
    return false;  // already fired, already cancelled, or a stale handle
  }
  HeapRemoveAt(heap_pos_[s]);
  ++sl.gen;  // invalidates every outstanding EventId for this slot
  FreeSlot(s);
  return true;
}

bool EventLoop::DispatchOne() {
  if (heap_.empty()) {
    return false;
  }
  Key& top = heap_[0];
  FV_CHECK_GE(top.time, now_);
  now_ = top.time;
  const uint32_t s = top.slot;
  Slot& sl = SlotAt(s);
  if (sl.relay > 0) {
    // Phase one of a relay (message delivery): re-arm for the handler phase
    // with a fresh sequence number, exactly as if the handler had been
    // scheduled from inside a delivery callback.
    top.time += sl.relay;
    top.seq = next_seq_++;
    sl.relay = 0;
    SiftDown(0);
    return true;
  }
  HeapRemoveAt(0);
  ++sl.gen;  // the firing event's own handle is stale from here on
  // Runs in place: the slot is neither queued nor free, and its chunk never
  // moves, so the callback may schedule or cancel freely.
  sl.cb();
  FreeSlot(s);
  return true;
}

size_t EventLoop::Run() {
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_ && DispatchOne()) {
    ++dispatched;
  }
  return dispatched;
}

size_t EventLoop::RunWhile(const std::function<bool()>& keep_going, TimeNs deadline) {
  FV_CHECK(keep_going != nullptr);
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_ && keep_going()) {
    if (heap_.empty() || heap_[0].time > deadline) {
      break;
    }
    if (DispatchOne()) {
      ++dispatched;
    }
  }
  return dispatched;
}

size_t EventLoop::RunBelow(TimeNs horizon) {
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_) {
    if (heap_.empty() || heap_[0].time >= horizon) {
      break;
    }
    if (DispatchOne()) {
      ++dispatched;
    }
  }
  return dispatched;
}

size_t EventLoop::RunUntil(TimeNs deadline) {
  FV_CHECK_GE(deadline, now_);
  stopped_ = false;
  size_t dispatched = 0;
  while (!stopped_) {
    if (heap_.empty() || heap_[0].time > deadline) {
      break;
    }
    if (DispatchOne()) {
      ++dispatched;
    }
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return dispatched;
}

}  // namespace fragvisor

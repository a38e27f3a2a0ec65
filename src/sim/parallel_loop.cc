#include "src/sim/parallel_loop.h"

#include <algorithm>
#include <utility>

namespace fragvisor {
namespace {

// Which partition the current thread is executing a window for (-1 outside a
// window). Enforces the outbox discipline: during a window, only the running
// partition may post, so each outbox has one writer and receives its mail in
// ascending source order.
thread_local int tl_current_partition = -1;

}  // namespace

ParallelEventLoop::ParallelEventLoop(Options options) : opt_(options) {
  FV_CHECK_GE(opt_.num_partitions, 1);
  FV_CHECK_LT(opt_.num_partitions, 1 << 16);  // CrossEventId packs 16-bit ids
  FV_CHECK_GE(opt_.num_threads, 1);
  FV_CHECK_GE(opt_.lookahead, 1);
  opt_.num_threads = std::min(opt_.num_threads, opt_.num_partitions);

  parts_.reserve(static_cast<size_t>(opt_.num_partitions));
  for (int p = 0; p < opt_.num_partitions; ++p) {
    parts_.push_back(std::make_unique<Partition>());
  }
  outbox_.resize(static_cast<size_t>(opt_.num_threads * opt_.num_threads));
  threads_.resize(static_cast<size_t>(opt_.num_threads));

  // Thread 0 is the calling thread; it runs its own share of partitions
  // inside each window, so only num_threads - 1 workers spawn.
  for (int ti = 1; ti < opt_.num_threads; ++ti) {
    workers_.emplace_back([this, ti]() { WorkerMain(ti); });
  }
}

ParallelEventLoop::~ParallelEventLoop() {
  if (!workers_.empty()) {
    shutdown_ = true;
    Barrier();
    for (std::thread& w : workers_) {
      w.join();
    }
  }
}

TimeNs ParallelEventLoop::now_max() const {
  TimeNs t = 0;
  for (const auto& p : parts_) {
    t = std::max(t, p->loop.now());
  }
  return t;
}

void ParallelEventLoop::Post(int src, int dst, CrossEventId token, TimeNs when, TimeNs relay,
                             bool cancel, Callback&& cb) {
  OutboxFor(Owner(src), Owner(dst))
      .entries.emplace_back(token, when, relay, src, dst, cancel, std::move(cb));
}

CrossEventId ParallelEventLoop::ScheduleCross(int src, int dst, TimeNs when,
                                              TimeNs relay_delay, Callback&& cb,
                                              bool cancellable) {
  FV_CHECK_GE(src, 0);
  FV_CHECK_LT(src, opt_.num_partitions);
  FV_CHECK_GE(dst, 0);
  FV_CHECK_LT(dst, opt_.num_partitions);
  FV_CHECK(cb != nullptr);
  FV_CHECK_GE(relay_delay, 0);
  if (running_) {
    FV_CHECK_EQ(src, tl_current_partition);
  }
  // Conservative lookahead contract: nothing may land inside the window that
  // is currently executing (or, between windows, inside the last one). The
  // owner of `src` is the running thread; every thread holds the same
  // horizon, so between runs any of them will do.
  FV_CHECK_GE(when, threads_[static_cast<size_t>(Owner(src))].horizon);

  CrossEventId token = kInvalidCrossEventId;
  if (cancellable) {
    Partition& s = *parts_[static_cast<size_t>(src)];
    FV_CHECK_LT(s.next_token, 0xffffffffu);
    token = (static_cast<uint64_t>(src) << 48) |
            (static_cast<uint64_t>(dst) << 32) | s.next_token++;
  }
  Post(src, dst, token, when, relay_delay, /*cancel=*/false, std::move(cb));
  return token;
}

bool ParallelEventLoop::CancelCross(int from, CrossEventId id) {
  if (id == kInvalidCrossEventId) {
    return false;
  }
  const int src = static_cast<int>(id >> 48);
  const int dst = static_cast<int>((id >> 32) & 0xffffu);
  if (src < 0 || src >= opt_.num_partitions || dst < 0 || dst >= opt_.num_partitions) {
    return false;
  }
  FV_CHECK_GE(from, 0);
  FV_CHECK_LT(from, opt_.num_partitions);
  if (running_) {
    FV_CHECK_EQ(from, tl_current_partition);
  }
  Post(from, dst, id, 0, 0, /*cancel=*/true, nullptr);
  return true;
}

void ParallelEventLoop::Drain(int thread_index) {
  // Each destination commits its mail in (src, FIFO) order. Destinations
  // share no state, so their mail may interleave, and inside a window the
  // outboxes (0, t), (1, t), ... hold it in ascending source order already.
  // Mail the caller posted between runs may not be; a stable sort restores it.
  std::vector<MailEntry*>& mail = threads_[static_cast<size_t>(thread_index)].mail;
  mail.clear();
  bool by_src = true;
  for (int from = 0; from < opt_.num_threads; ++from) {
    for (MailEntry& e : OutboxFor(from, thread_index).entries) {
      by_src = by_src && (mail.empty() || mail.back()->src <= e.src);
      mail.push_back(&e);
    }
  }
  if (!by_src) {
    std::stable_sort(mail.begin(), mail.end(),
                     [](const MailEntry* a, const MailEntry* b) { return a->src < b->src; });
  }
  // Pass 1: commit schedules — this fixes the destination sequence numbers of
  // equal-time cross events independent of which thread produced them, and
  // guarantees a cancel mailed in the same window as its schedule finds the
  // event committed.
  bool cancels = false;
  for (MailEntry* e : mail) {
    if (e->cancel) {
      cancels = true;
      continue;
    }
    Partition& d = *parts_[e->dst];
    ++d.mailbox_events;
    const EventId eid = e->relay > 0 ? d.loop.ScheduleRelay(e->when, e->relay, std::move(e->cb))
                                     : d.loop.ScheduleAt(e->when, std::move(e->cb));
    if (e->token != kInvalidCrossEventId) {
      d.cancellable.emplace(e->token, eid);
    }
  }
  // Pass 2: apply cancels. EventLoop::Cancel rejects handles of events that
  // already fired (slot generations), which is exactly the "late" case of
  // the routed-cancel contract.
  for (size_t i = 0; cancels && i < mail.size(); ++i) {
    const MailEntry& e = *mail[i];
    if (!e.cancel) {
      continue;
    }
    Partition& d = *parts_[e.dst];
    ++d.cancels_routed;
    auto it = d.cancellable.find(e.token);
    if (it != d.cancellable.end() && d.loop.Cancel(it->second)) {
      ++d.cancels_applied;
    } else {
      ++d.cancels_late;
    }
    if (it != d.cancellable.end()) {
      d.cancellable.erase(it);
    }
  }
  for (int from = 0; from < opt_.num_threads; ++from) {
    OutboxFor(from, thread_index).entries.clear();
  }
}

void ParallelEventLoop::Barrier() {
  // Yield rounds before a waiter sleeps: enough to cover the imbalance of a
  // typical window without a futex round trip, few enough that waiters stop
  // taking turns on the cores soon when a peer is descheduled (more workers
  // than cores).
  constexpr int kYieldRounds = 64;
  if (opt_.num_threads == 1) {
    return;
  }
  const uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == opt_.num_threads) {
    arrived_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mu_);
      generation_.store(gen + 1, std::memory_order_release);
    }
    cv_.notify_all();
    return;
  }
  for (int i = 0; i < kYieldRounds; ++i) {
    if (generation_.load(std::memory_order_acquire) != gen) {
      return;
    }
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return generation_.load(std::memory_order_acquire) != gen; });
}

void ParallelEventLoop::RunThread(int thread_index) {
  const int first = First(thread_index);
  const int last = First(thread_index + 1);
  ThreadState& self = threads_[static_cast<size_t>(thread_index)];
  TimeNs last_horizon = 0;
  for (;;) {
    Drain(thread_index);
    self.next_event_time = EventLoop::kNoPendingEvent;
    for (int p = first; p < last; ++p) {
      self.next_event_time =
          std::min(self.next_event_time, parts_[static_cast<size_t>(p)]->loop.next_event_time());
    }
    Barrier();
    TimeNs tmin = EventLoop::kNoPendingEvent;
    for (const ThreadState& t : threads_) {
      tmin = std::min(tmin, t.next_event_time);
    }
    if (tmin == EventLoop::kNoPendingEvent) {
      return;
    }
    self.horizon = tmin + opt_.lookahead;
    if (thread_index == 0) {
      ++stats_.barriers;
      stats_.horizon_width_ns.Record(static_cast<double>(self.horizon - last_horizon));
      last_horizon = self.horizon;
    }
    for (int p = first; p < last; ++p) {
      tl_current_partition = p;
      Partition& part = *parts_[static_cast<size_t>(p)];
      part.dispatched += part.loop.RunBelow(self.horizon);
    }
    tl_current_partition = -1;
    Barrier();
  }
}

void ParallelEventLoop::WorkerMain(int thread_index) {
  for (;;) {
    Barrier();  // the start of a Run(), or shutdown
    if (shutdown_) {
      return;
    }
    RunThread(thread_index);
  }
}

size_t ParallelEventLoop::Run() {
  FV_CHECK(!running_);
  running_ = true;
  Barrier();  // releases the workers into this run
  RunThread(0);
  running_ = false;

  // Every thread has passed the last barrier, so all partition counters are
  // final and visible here.
  const uint64_t before = stats_.events_dispatched;
  stats_.events_dispatched = 0;
  stats_.mailbox_events = 0;
  stats_.cross_cancels_routed = 0;
  stats_.cross_cancels_applied = 0;
  stats_.cross_cancels_late = 0;
  stats_.events_per_partition.assign(static_cast<size_t>(opt_.num_partitions), 0);
  for (int p = 0; p < opt_.num_partitions; ++p) {
    const Partition& part = *parts_[static_cast<size_t>(p)];
    stats_.events_per_partition[static_cast<size_t>(p)] = part.dispatched;
    stats_.events_dispatched += part.dispatched;
    stats_.mailbox_events += part.mailbox_events;
    stats_.cross_cancels_routed += part.cancels_routed;
    stats_.cross_cancels_applied += part.cancels_applied;
    stats_.cross_cancels_late += part.cancels_late;
  }
  return stats_.events_dispatched - before;
}

}  // namespace fragvisor

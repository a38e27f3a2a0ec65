#include "src/sched/harvest.h"

#include <algorithm>
#include <map>

#include "src/sim/check.h"

namespace fragvisor {

TransientStudy::TransientStudy(int num_nodes, int cpus_per_node)
    : num_nodes_(num_nodes), cpus_per_node_(cpus_per_node) {
  FV_CHECK_GT(num_nodes, 0);
  FV_CHECK_GT(cpus_per_node, 0);
}

void TransientStudy::LoadPrimaries(const std::vector<VmRequest>& primaries, TimeNs horizon) {
  FV_CHECK_GT(horizon, 0);
  horizon_ = horizon;

  // Replay arrivals/departures through best-fit-first placement, collecting
  // per-node capacity deltas at each event time.
  std::map<TimeNs, std::vector<int>> deltas;  // time -> per-node free delta
  std::vector<int> free(static_cast<size_t>(num_nodes_), cpus_per_node_);

  // Sort by arrival (GenerateBurst is already sorted; be safe).
  std::vector<VmRequest> sorted = primaries;
  std::sort(sorted.begin(), sorted.end(),
            [](const VmRequest& a, const VmRequest& b) { return a.arrival < b.arrival; });

  struct Departure {
    TimeNs time;
    NodeId node;
    int cpus;
  };
  std::vector<Departure> departures;

  auto apply_departures_until = [&](TimeNs t) {
    // Departures are processed in time order to keep `free` accurate.
    std::sort(departures.begin(), departures.end(),
              [](const Departure& a, const Departure& b) { return a.time < b.time; });
    size_t i = 0;
    for (; i < departures.size() && departures[i].time <= t; ++i) {
      free[static_cast<size_t>(departures[i].node)] += departures[i].cpus;
    }
    departures.erase(departures.begin(), departures.begin() + static_cast<long>(i));
  };

  for (const VmRequest& r : sorted) {
    apply_departures_until(r.arrival);
    // Best fit among nodes that hold it whole; drop otherwise.
    const NodeId best = BestFit(free, r.vcpus);
    if (best == kInvalidNode) {
      continue;
    }
    free[static_cast<size_t>(best)] -= r.vcpus;
    auto& d = deltas[r.arrival];
    d.resize(static_cast<size_t>(num_nodes_), 0);
    d[static_cast<size_t>(best)] -= r.vcpus;
    const TimeNs end = r.arrival + r.duration;
    departures.push_back({end, best, r.vcpus});
    auto& e = deltas[end];
    e.resize(static_cast<size_t>(num_nodes_), 0);
    e[static_cast<size_t>(best)] += r.vcpus;
  }

  // Integrate deltas into breakpoints.
  timeline_.clear();
  Breakpoint current;
  current.time = 0;
  current.free.assign(static_cast<size_t>(num_nodes_), cpus_per_node_);
  timeline_.push_back(current);
  for (const auto& [t, delta] : deltas) {
    if (t > horizon_) {
      break;
    }
    for (int n = 0; n < num_nodes_; ++n) {
      current.free[static_cast<size_t>(n)] += delta[static_cast<size_t>(n)];
      FV_CHECK_GE(current.free[static_cast<size_t>(n)], 0);
      FV_CHECK_LE(current.free[static_cast<size_t>(n)], cpus_per_node_);
    }
    current.time = t;
    timeline_.push_back(current);
  }
}

size_t TransientStudy::SegmentAt(TimeNs t) const {
  FV_CHECK(!timeline_.empty());
  size_t lo = 0;
  size_t hi = timeline_.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (timeline_[mid].time <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int TransientStudy::FreeAt(NodeId node, TimeNs t) const {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, num_nodes_);
  return timeline_[SegmentAt(t)].free[static_cast<size_t>(node)];
}

int TransientStudy::TotalFreeAt(TimeNs t) const {
  const Breakpoint& bp = timeline_[SegmentAt(t)];
  int total = 0;
  for (const int f : bp.free) {
    total += f;
  }
  return total;
}

JobOutcome TransientStudy::RunDelayedWhole(const JobSpec& job, TimeNs submit) const {
  JobOutcome outcome;
  const TimeNs run_time = FromSeconds(job.cpu_seconds / static_cast<double>(job.cpus));
  // Candidate start times: submission and every later breakpoint.
  for (size_t i = SegmentAt(submit); i < timeline_.size(); ++i) {
    const TimeNs start = std::max(submit, timeline_[i].time);
    if (start + run_time > horizon_) {
      break;
    }
    for (NodeId n = 0; n < num_nodes_; ++n) {
      // The node must keep `cpus` free for the entire run.
      bool fits = true;
      for (size_t j = SegmentAt(start); j < timeline_.size() && timeline_[j].time < start + run_time;
           ++j) {
        if (timeline_[j].free[static_cast<size_t>(n)] < job.cpus) {
          fits = false;
          break;
        }
      }
      if (fits) {
        outcome.completed = true;
        outcome.completion_time = start + run_time - submit;
        return outcome;
      }
    }
  }
  return outcome;
}

JobOutcome TransientStudy::RunHarvest(const JobSpec& job, TimeNs submit) const {
  JobOutcome outcome;
  double remaining = job.cpu_seconds;
  TimeNs t = submit;

  // Place on the node with the most idle CPUs right now.
  auto pick_node = [this](TimeNs when) {
    NodeId best = 0;
    for (NodeId n = 1; n < num_nodes_; ++n) {
      if (FreeAt(n, when) > FreeAt(best, when)) {
        best = n;
      }
    }
    return best;
  };

  NodeId node = pick_node(t);
  int last_alloc = std::min(FreeAt(node, t), job.cpus);
  while (t < horizon_) {
    const size_t seg = SegmentAt(t);
    const TimeNs seg_end =
        seg + 1 < timeline_.size() ? timeline_[seg + 1].time : horizon_;
    const int idle = timeline_[seg].free[static_cast<size_t>(node)];
    if (idle < job.harvest_min_cpus) {
      // Even the guaranteed minimum is gone: eviction. Work is lost.
      ++outcome.evictions;
      remaining = job.cpu_seconds;
      t = std::min(horizon_, t + job.eviction_restart);
      node = pick_node(t);
      last_alloc = std::min(FreeAt(node, t), job.cpus);
      continue;
    }
    const int alloc = std::min(idle, job.cpus);
    if (alloc < last_alloc) {
      ++outcome.reclaims;
    }
    last_alloc = alloc;
    const double rate = static_cast<double>(alloc);
    const double seg_seconds = ToSeconds(seg_end - t);
    if (rate > 0 && remaining <= rate * seg_seconds) {
      outcome.completed = true;
      outcome.completion_time = t + FromSeconds(remaining / rate) - submit;
      return outcome;
    }
    remaining -= rate * seg_seconds;
    t = seg_end;
  }
  return outcome;
}

JobOutcome TransientStudy::RunAggregate(const JobSpec& job, TimeNs submit) const {
  JobOutcome outcome;
  // Start as soon as the fragments add up; from then on the CPUs are
  // guaranteed (borrowed, not harvested).
  TimeNs start = submit;
  while (start < horizon_ && TotalFreeAt(start) < job.cpus) {
    const size_t seg = SegmentAt(start);
    if (seg + 1 >= timeline_.size()) {
      return outcome;  // never enough fragments
    }
    start = timeline_[seg + 1].time;
  }
  if (start >= horizon_) {
    return outcome;
  }
  const double rate = static_cast<double>(job.cpus) * job.aggregate_efficiency;
  const TimeNs run_time = FromSeconds(job.cpu_seconds / rate);
  if (start + run_time > horizon_) {
    return outcome;
  }
  outcome.completed = true;
  outcome.completion_time = start + run_time - submit;
  return outcome;
}

}  // namespace fragvisor

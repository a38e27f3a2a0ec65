#include "src/sim/fault_plan.h"

#include <algorithm>
#include <string>

#include "src/sim/check.h"
#include "src/sim/event_loop.h"
#include "src/sim/parallel_loop.h"

namespace fragvisor {

FaultPlan::FaultPlan(uint64_t seed) : seed_(seed), rng_(seed) {}

bool FaultPlan::empty() const {
  return !have_default_profile_ && link_profiles_.empty() && transitions_.empty() &&
         partitions_.empty();
}

void FaultPlan::SetDefaultLinkFaults(const LinkFaultProfile& profile) {
  FV_CHECK_GE(profile.drop_prob, 0.0);
  FV_CHECK_LE(profile.drop_prob, 1.0);
  FV_CHECK_GE(profile.dup_prob, 0.0);
  FV_CHECK_LE(profile.dup_prob, 1.0);
  FV_CHECK_GE(profile.extra_delay_max, 0);
  default_profile_ = profile;
  have_default_profile_ = true;
}

void FaultPlan::SetLinkFaults(int32_t src, int32_t dst, const LinkFaultProfile& profile) {
  FV_CHECK_GE(profile.drop_prob, 0.0);
  FV_CHECK_LE(profile.drop_prob, 1.0);
  FV_CHECK_GE(profile.dup_prob, 0.0);
  FV_CHECK_LE(profile.dup_prob, 1.0);
  FV_CHECK_GE(profile.extra_delay_max, 0);
  link_profiles_[{src, dst}] = profile;
}

void FaultPlan::CrashNode(int32_t node, TimeNs at) {
  FV_CHECK_GE(node, 0);
  FV_CHECK_GE(at, 0);
  NodeTransition t{at, /*up=*/false};
  std::vector<NodeTransition>& v = transitions_[node];
  v.push_back(t);
  std::sort(v.begin(), v.end(),
            [](const NodeTransition& x, const NodeTransition& y) { return x.at < y.at; });
  ArmNodeTransition(node, t);
}

void FaultPlan::RestartNode(int32_t node, TimeNs at) {
  FV_CHECK_GE(node, 0);
  FV_CHECK_GE(at, 0);
  NodeTransition t{at, /*up=*/true};
  std::vector<NodeTransition>& v = transitions_[node];
  v.push_back(t);
  std::sort(v.begin(), v.end(),
            [](const NodeTransition& x, const NodeTransition& y) { return x.at < y.at; });
  ArmNodeTransition(node, t);
}

void FaultPlan::PartitionLink(int32_t a, int32_t b, TimeNs from, TimeNs until) {
  FV_CHECK_GE(a, 0);
  FV_CHECK_GE(b, 0);
  FV_CHECK_LT(from, until);
  Partition p{a, b, from, until};
  partitions_.push_back(p);
  ArmPartition(p);
}

void FaultPlan::Schedule(const FaultSchedule& schedule, int num_nodes) {
  if (schedule.link.active()) {
    SetDefaultLinkFaults(schedule.link);
  }
  for (const FaultSchedule::NodeEvent& e : schedule.crashes) {
    FV_CHECK_LT(e.node, num_nodes);
    CrashNode(e.node, e.at);
  }
  for (const FaultSchedule::NodeEvent& e : schedule.restarts) {
    FV_CHECK_LT(e.node, num_nodes);
    RestartNode(e.node, e.at);
  }
  for (const FaultSchedule::Cut& c : schedule.partitions) {
    FV_CHECK_LT(c.a, num_nodes);
    FV_CHECK_LT(c.b, num_nodes);
    FV_CHECK_NE(c.a, c.b);
    PartitionLink(c.a, c.b, c.from, c.until);
  }
}

bool FaultPlan::NodeUp(int32_t node, TimeNs now) const {
  auto it = transitions_.find(node);
  if (it == transitions_.end()) {
    return true;
  }
  // Transitions are sorted by time; the last one at or before `now` wins.
  bool up = true;
  for (const NodeTransition& t : it->second) {
    if (t.at > now) {
      break;
    }
    up = t.up;
  }
  return up;
}

bool FaultPlan::LinkCut(int32_t src, int32_t dst, TimeNs now) const {
  for (const Partition& p : partitions_) {
    const bool matches = (p.a == src && p.b == dst) || (p.a == dst && p.b == src);
    if (matches && now >= p.from && now < p.until) {
      return true;
    }
  }
  return false;
}

TimeNs FaultPlan::LastCrashBefore(int32_t node, TimeNs now) const {
  auto it = transitions_.find(node);
  if (it == transitions_.end()) {
    return -1;
  }
  TimeNs last = -1;
  for (const NodeTransition& t : it->second) {
    if (t.at > now) {
      break;
    }
    if (!t.up) {
      last = t.at;
    }
  }
  return last;
}

const LinkFaultProfile* FaultPlan::ProfileFor(int32_t src, int32_t dst) const {
  auto it = link_profiles_.find({src, dst});
  if (it != link_profiles_.end()) {
    return &it->second;
  }
  return have_default_profile_ ? &default_profile_ : nullptr;
}

void FaultPlan::EnablePerNodeStreams(int num_nodes) {
  FV_CHECK_GT(num_nodes, 0);
  FV_CHECK(node_rngs_.empty());  // enable once, before the first Perturb()
  node_rngs_.reserve(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    // Seeded off the plan seed alone (not the legacy stream), so enabling
    // the per-node streams never disturbs single-stream replays.
    node_rngs_.emplace_back(seed_ ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(n + 1)));
  }
  shard_stats_.assign(static_cast<size_t>(num_nodes), FaultPlanStats());
}

FaultPlan::Perturbation FaultPlan::PerturbWith(Rng& rng, FaultPlanStats& stats, int32_t src,
                                               int32_t dst) {
  Perturbation out;
  const LinkFaultProfile* profile = ProfileFor(src, dst);
  if (profile == nullptr || !profile->active()) {
    return out;  // no RNG draw: inactive links cost nothing
  }
  if (profile->drop_prob > 0.0 && rng.Chance(profile->drop_prob)) {
    out.drop = true;
    stats.messages_dropped.Add();
    return out;  // a dropped message is neither duplicated nor delayed
  }
  if (profile->extra_delay_max > 0) {
    out.extra_delay = rng.UniformInt(0, profile->extra_delay_max);
    if (out.extra_delay > 0) {
      stats.messages_delayed.Add();
    }
  }
  if (profile->dup_prob > 0.0 && rng.Chance(profile->dup_prob)) {
    out.duplicate = true;
    // The copy trails the original by a small sub-latency lag so it lands as
    // a distinct later event on the same link.
    out.duplicate_lag = rng.UniformInt(1, profile->extra_delay_max > 0
                                              ? profile->extra_delay_max
                                              : TimeNs{1000});
    stats.messages_duplicated.Add();
  }
  return out;
}

FaultPlan::Perturbation FaultPlan::Perturb(int32_t src, int32_t dst, TimeNs now) {
  (void)now;
  if (per_node_streams()) {
    FV_CHECK_GE(src, 0);
    FV_CHECK_LT(static_cast<size_t>(src), node_rngs_.size());
    return PerturbWith(node_rngs_[static_cast<size_t>(src)],
                       shard_stats_[static_cast<size_t>(src)], src, dst);
  }
  return PerturbWith(rng_, stats_, src, dst);
}

void FaultPlan::Arm(EventLoop* loop) {
  FV_CHECK(loop != nullptr);
  if (loop_ == loop) {
    return;
  }
  FV_CHECK(loop_ == nullptr);  // a plan arms against exactly one loop
  FV_CHECK(ploop_ == nullptr);
  loop_ = loop;
  for (const auto& [node, v] : transitions_) {
    for (const NodeTransition& t : v) {
      ArmNodeTransition(node, t);
    }
  }
  for (const Partition& p : partitions_) {
    ArmPartition(p);
  }
}

void FaultPlan::ArmParallel(ParallelEventLoop* ploop) {
  FV_CHECK(ploop != nullptr);
  if (ploop_ == ploop) {
    return;
  }
  FV_CHECK(loop_ == nullptr);   // a plan arms against exactly one engine
  FV_CHECK(ploop_ == nullptr);
  FV_CHECK(per_node_streams());
  FV_CHECK_LE(shard_stats_.size(), static_cast<size_t>(ploop->num_partitions()));
  ploop_ = ploop;
  for (const auto& [node, v] : transitions_) {
    for (const NodeTransition& t : v) {
      ArmNodeTransition(node, t);
    }
  }
  for (const Partition& p : partitions_) {
    ArmPartition(p);
  }
}

void FaultPlan::ArmNodeTransition(int32_t node, const NodeTransition& t) {
  EventLoop* loop = loop_;
  FaultPlanStats* stats = &stats_;
  if (ploop_ != nullptr) {
    // The marker runs inside the node's own partition and stamps the node's
    // stats shard, keeping every counter write partition-local.
    FV_CHECK_LT(static_cast<size_t>(node), shard_stats_.size());
    loop = ploop_->partition(node);
    stats = &shard_stats_[static_cast<size_t>(node)];
  }
  if (loop == nullptr) {
    return;  // Arm() will schedule it later
  }
  const TimeNs when = std::max(t.at, loop->now());
  if (t.up) {
    loop->ScheduleAt(when, [loop, stats, node] {
      stats->node_restarts.Add();
      loop->Trace(TraceCategory::kFault, "node_restart", "node=", node);
    });
  } else {
    loop->ScheduleAt(when, [loop, stats, node] {
      stats->node_crashes.Add();
      loop->Trace(TraceCategory::kFault, "node_crash", "node=", node);
    });
  }
}

void FaultPlan::ArmPartition(const Partition& p) {
  EventLoop* loop = loop_;
  FaultPlanStats* stats = &stats_;
  if (ploop_ != nullptr) {
    // Both cut/heal markers live on the lower endpoint's partition.
    const int32_t owner = std::min(p.a, p.b);
    FV_CHECK_LT(static_cast<size_t>(owner), shard_stats_.size());
    loop = ploop_->partition(owner);
    stats = &shard_stats_[static_cast<size_t>(owner)];
  }
  if (loop == nullptr) {
    return;
  }
  const int32_t a = p.a;
  const int32_t b = p.b;
  loop->ScheduleAt(std::max(p.from, loop->now()), [loop, stats, a, b] {
    stats->partitions_cut.Add();
    loop->Trace(TraceCategory::kFault, "partition_cut", "link=", a, "<->", b);
  });
  loop->ScheduleAt(std::max(p.until, loop->now()), [loop, stats, a, b] {
    stats->partitions_healed.Add();
    loop->Trace(TraceCategory::kFault, "partition_heal", "link=", a, "<->", b);
  });
}

}  // namespace fragvisor

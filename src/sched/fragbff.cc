#include "src/sched/fragbff.h"

#include <algorithm>

#include "src/sim/check.h"

namespace fragvisor {

std::vector<VmRequest> GenerateBurst(Rng& rng, int count, TimeNs span, int max_vcpus) {
  std::vector<VmRequest> burst;
  burst.reserve(static_cast<size_t>(count));
  TimeNs t = 0;
  const double mean_gap = static_cast<double>(span) / static_cast<double>(count);
  for (int i = 0; i < count; ++i) {
    VmRequest r;
    r.id = i;
    // Size mix: small VMs dominate (2-4 vCPUs are the most common sizes).
    const double u = rng.NextDouble();
    if (u < 0.18) {
      r.vcpus = 1;
    } else if (u < 0.46) {
      r.vcpus = 2;
    } else if (u < 0.76) {
      r.vcpus = 4;
    } else if (u < 0.90) {
      r.vcpus = 8;
    } else {
      r.vcpus = 12;
    }
    r.vcpus = std::min(r.vcpus, max_vcpus);
    // Heavy-tailed lifetimes, scaled down 100x from production traces.
    r.duration = FromSeconds(rng.BoundedPareto(2.0, 120.0, 1.2));
    t += FromSeconds(rng.Exponential(mean_gap / static_cast<double>(kSecond)));
    r.arrival = t;
    burst.push_back(r);
  }
  return burst;
}

NodeId BestFit(const std::vector<int>& free, int slots) {
  FV_CHECK_GT(slots, 0);
  NodeId best = kInvalidNode;
  for (NodeId n = 0; n < static_cast<NodeId>(free.size()); ++n) {
    const int f = free[static_cast<size_t>(n)];
    if (f >= slots && (best == kInvalidNode || f < free[static_cast<size_t>(best)])) {
      best = n;
    }
  }
  return best;
}

std::map<NodeId, int> FillFragments(const std::vector<int>& free, int slots, SchedPolicy order) {
  FV_CHECK_GT(slots, 0);
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < static_cast<NodeId>(free.size()); ++n) {
    if (free[static_cast<size_t>(n)] > 0) {
      nodes.push_back(n);
    }
  }
  std::sort(nodes.begin(), nodes.end(), [&](NodeId a, NodeId b) {
    const int fa = free[static_cast<size_t>(a)];
    const int fb = free[static_cast<size_t>(b)];
    if (fa != fb) {
      return order == SchedPolicy::kMinNodes ? fa > fb : fa < fb;
    }
    return a < b;
  });
  std::map<NodeId, int> alloc;
  int needed = slots;
  for (const NodeId n : nodes) {
    const int take = std::min(needed, free[static_cast<size_t>(n)]);
    alloc[n] = take;
    needed -= take;
    if (needed == 0) {
      return alloc;
    }
  }
  return {};
}

FragBffScheduler::FragBffScheduler(EventLoop* loop, const Config& config)
    : loop_(loop), config_(config) {
  FV_CHECK(loop != nullptr);
  FV_CHECK_GT(config.num_nodes, 0);
  FV_CHECK_GT(config.cpus_per_node, 0);
  free_.assign(static_cast<size_t>(config.num_nodes), config.cpus_per_node);
}

int FragBffScheduler::free_cpus(NodeId node) const {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, config_.num_nodes);
  return free_[static_cast<size_t>(node)];
}

int FragBffScheduler::total_free_cpus() const {
  int total = 0;
  for (const int f : free_) {
    total += f;
  }
  return total;
}

int FragBffScheduler::fragmented_cpus() const {
  int frag = 0;
  for (const int f : free_) {
    if (f > 0 && f < config_.cpus_per_node) {
      frag += f;
    }
  }
  return frag;
}

std::map<NodeId, int> FragBffScheduler::AllocationOf(int vm_id) const {
  auto it = active_.find(vm_id);
  return it == active_.end() ? std::map<NodeId, int>{} : it->second.alloc;
}

bool FragBffScheduler::IsAggregate(int vm_id) const {
  auto it = active_.find(vm_id);
  return it != active_.end() && it->second.aggregate;
}

void FragBffScheduler::Submit(const VmRequest& request) {
  loop_->ScheduleAt(std::max(request.arrival, loop_->now()),
                    [this, request]() { TryPlace(request); });
}

void FragBffScheduler::TryPlace(VmRequest request) {
  ActiveVm vm;
  vm.request = request;
  if (PlaceSingle(vm)) {
    vm.aggregate = false;
    stats_.placed_single.Add(1);
  } else if (PlaceAggregate(vm)) {
    vm.aggregate = true;
    stats_.placed_aggregate.Add(1);
  } else {
    stats_.delayed.Add(1);
    waiting_.push_back(request);
    return;
  }
  stats_.placement_delay_ns.Record(
      static_cast<double>(std::max<TimeNs>(0, loop_->now() - request.arrival)));
  const int id = request.id;
  active_[id] = vm;
  if (on_place_) {
    on_place_(id, active_[id].alloc);
  }
  loop_->ScheduleAfter(request.duration, [this, id]() { Depart(id); });
}

bool FragBffScheduler::PlaceSingle(ActiveVm& vm) {
  const NodeId best = BestFit(free_, vm.request.vcpus);
  if (best == kInvalidNode) {
    return false;
  }
  free_[static_cast<size_t>(best)] -= vm.request.vcpus;
  vm.alloc[best] = vm.request.vcpus;
  return true;
}

bool FragBffScheduler::PlaceAggregate(ActiveVm& vm) {
  vm.alloc = FillFragments(free_, vm.request.vcpus, config_.policy);
  for (const auto& [node, count] : vm.alloc) {
    free_[static_cast<size_t>(node)] -= count;
  }
  return !vm.alloc.empty();
}

void FragBffScheduler::Depart(int vm_id) {
  auto it = active_.find(vm_id);
  FV_CHECK(it != active_.end());
  for (const auto& [node, count] : it->second.alloc) {
    free_[static_cast<size_t>(node)] += count;
  }
  active_.erase(it);
  OnCapacityFreed();
}

void FragBffScheduler::OnCapacityFreed() {
  // 1) Serve delayed placements (FIFO) while the cluster holds the head
  //    whole or in fragments.
  while (!waiting_.empty() && total_free_cpus() >= waiting_.front().vcpus) {
    const VmRequest next = waiting_.front();
    waiting_.pop_front();
    TryPlace(next);
  }
  // 2) Consolidate Aggregate VMs onto freed capacity.
  TryConsolidate();
  // 3) Consolidation may have freed whole nodes for delayed big VMs.
  while (!waiting_.empty() && BestFit(free_, waiting_.front().vcpus) != kInvalidNode) {
    const VmRequest next = waiting_.front();
    waiting_.pop_front();
    TryPlace(next);
  }
}

void FragBffScheduler::MoveVcpus(ActiveVm& vm, NodeId from, NodeId to, int count) {
  FV_CHECK_GT(count, 0);
  FV_CHECK_GE(free_[static_cast<size_t>(to)], count);
  FV_CHECK_GE(vm.alloc[from], count);
  free_[static_cast<size_t>(to)] -= count;
  free_[static_cast<size_t>(from)] += count;
  vm.alloc[to] += count;
  vm.alloc[from] -= count;
  if (vm.alloc[from] == 0) {
    vm.alloc.erase(from);
  }
  stats_.migrations.Add(static_cast<uint64_t>(count));
  if (on_migrate_) {
    on_migrate_(vm.request.id, from, to, count);
  }
}

void FragBffScheduler::TryConsolidate() {
  // Small-fragment threshold: free blocks this size or below are pure
  // fragmentation (unusable by typical VMs) and should be consumed; larger
  // blocks are preserved for future whole placements under the
  // min-fragmentation policy.
  const int frag_threshold = std::max(1, config_.cpus_per_node / 4);

  for (auto& [id, vm] : active_) {
    (void)id;
    if (!vm.aggregate || vm.alloc.size() < 2) {
      continue;
    }
    bool progress = true;
    while (progress && vm.alloc.size() >= 2) {
      progress = false;
      // Prefer moving from the node where the VM has the fewest vCPUs.
      NodeId donor = kInvalidNode;
      for (const auto& [n, c] : vm.alloc) {
        if (donor == kInvalidNode || c < vm.alloc[donor]) {
          donor = n;
        }
      }
      // Candidate receivers: other nodes already hosting the VM.
      NodeId best_to = kInvalidNode;
      for (const auto& [n, c] : vm.alloc) {
        (void)c;
        if (n == donor || free_[static_cast<size_t>(n)] <= 0) {
          continue;
        }
        const bool full_move = free_[static_cast<size_t>(n)] >= vm.alloc[donor];
        if (config_.policy == SchedPolicy::kMinNodes) {
          // Only moves that empty the donor reduce the span.
          if (!full_move) {
            continue;
          }
        } else {
          // Min-fragmentation: consume small fragments; full moves into a
          // small-enough fragment are also fine, but do not burn big blocks.
          if (free_[static_cast<size_t>(n)] > frag_threshold && !full_move) {
            continue;
          }
          if (full_move && free_[static_cast<size_t>(n)] - vm.alloc[donor] > frag_threshold) {
            // Emptying the donor would consume a large block: skip, a future
            // arrival can use that block whole.
            continue;
          }
        }
        if (best_to == kInvalidNode || free_[static_cast<size_t>(n)] < free_[static_cast<size_t>(best_to)]) {
          best_to = n;
        }
      }
      if (best_to == kInvalidNode) {
        break;
      }
      const int count = std::min(vm.alloc[donor], free_[static_cast<size_t>(best_to)]);
      MoveVcpus(vm, donor, best_to, count);
      progress = true;
    }
    if (vm.alloc.size() == 1) {
      // Fully consolidated: back to the plain BFF world.
      vm.aggregate = false;
      stats_.consolidated.Add(1);
    }
  }
}

}  // namespace fragvisor

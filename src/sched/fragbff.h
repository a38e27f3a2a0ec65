// Cluster scheduling: BFF baseline and the FragBFF extension (Sec. 6.5).
//
// BFF (best-fit first) places a VM on the single node whose free capacity
// fits it most tightly. When no single node fits, BFF alone would delay the
// VM; FragBFF instead aggregates fragmented CPUs from several nodes and
// starts an Aggregate VM on them. On any VM departure, FragBFF re-evaluates
// co-located Aggregate VMs and triggers vCPU migrations to consolidate them
// onto fewer nodes — returning a fully consolidated VM to plain BFF.
//
// Two policies, as in the paper:
//  * kMinFragmentation — prefer filling the smallest usable fragments and
//    migrate only when it reduces overall cluster fragmentation;
//  * kMinNodes        — minimize the number of nodes an Aggregate VM spans.
//
// BFF and FragBFF's aggregation are two kernels over a per-node vector of
// free slots, BestFit and FillFragments. The scheduler below, the transient
// study (sched/harvest) and the cluster marketplace's fragbff and harvest
// policies (cluster/marketplace) all place through them.
//
// The scheduler is pure bookkeeping over an event loop; hooks let a bench
// attach a real AggregateVm to one scheduled VM (the Fig. 14 trace).

#ifndef FRAGVISOR_SRC_SCHED_FRAGBFF_H_
#define FRAGVISOR_SRC_SCHED_FRAGBFF_H_

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"

namespace fragvisor {

struct VmRequest {
  int id = 0;
  int vcpus = 1;
  TimeNs duration = 0;
  TimeNs arrival = 0;
};

enum class SchedPolicy : uint8_t {
  kMinFragmentation,
  kMinNodes,
};

// Protean-scaled arrival generator: VM sizes follow the common-size mix the
// paper cites (2-4 vCPUs dominate), durations are heavy-tailed, scaled down
// 100x to ease experiments (as in Sec. 7.3).
std::vector<VmRequest> GenerateBurst(Rng& rng, int count, TimeNs span, int max_vcpus = 12);

// BFF: the node whose free slots hold `slots` whole most tightly, the lowest
// id on ties, or kInvalidNode when none does. `free` is indexed by node id.
NodeId BestFit(const std::vector<int>& free, int slots);

// FragBFF's aggregation: a {node -> slots} allocation of `slots`, taken from
// the nodes with free slots smallest-first (kMinFragmentation: consume the
// slivers, keep big blocks whole) or largest-first (kMinNodes: span the
// fewest nodes), ties to the lowest id. Empty when they hold fewer.
std::map<NodeId, int> FillFragments(const std::vector<int>& free, int slots, SchedPolicy order);

class FragBffScheduler {
 public:
  struct Config {
    int num_nodes = 4;
    int cpus_per_node = 12;
    SchedPolicy policy = SchedPolicy::kMinFragmentation;
  };

  struct Stats {
    Counter placed_single;     // VMs placed whole by BFF
    Counter placed_aggregate;  // VMs started as Aggregate VMs by FragBFF
    Counter delayed;           // placements deferred for lack of capacity
    Counter migrations;        // vCPU migrations triggered for consolidation
    Counter consolidated;      // Aggregate VMs fully returned to BFF
    Summary placement_delay_ns;  // submit -> running, per placed VM
  };

  // Invoked when `count` vCPUs of VM `vm_id` move from `from` to `to`.
  using MigrateHook = std::function<void(int vm_id, NodeId from, NodeId to, int count)>;
  // Invoked when a VM starts, with its per-node vCPU allocation.
  using PlaceHook = std::function<void(int vm_id, const std::map<NodeId, int>& alloc)>;

  FragBffScheduler(EventLoop* loop, const Config& config);

  void set_on_migrate(MigrateHook hook) { on_migrate_ = std::move(hook); }
  void set_on_place(PlaceHook hook) { on_place_ = std::move(hook); }

  // Submits a request; placement happens at request.arrival (scheduled on the
  // event loop), departure at arrival + duration.
  void Submit(const VmRequest& request);

  // Capacity introspection.
  int free_cpus(NodeId node) const;
  int total_free_cpus() const;
  // Number of <cpus_per_node free chunks — the paper's fragmentation notion:
  // free CPUs unusable for a full-node VM.
  int fragmented_cpus() const;

  // Per-node vCPU allocation of an active VM (empty when departed).
  std::map<NodeId, int> AllocationOf(int vm_id) const;
  bool IsAggregate(int vm_id) const;

  const Stats& stats() const { return stats_; }

 private:
  struct ActiveVm {
    VmRequest request;
    std::map<NodeId, int> alloc;
    bool aggregate = false;
  };

  void TryPlace(VmRequest request);
  bool PlaceSingle(ActiveVm& vm);
  bool PlaceAggregate(ActiveVm& vm);
  void Depart(int vm_id);
  void OnCapacityFreed();
  void TryConsolidate();
  // Moves up to `count` vCPUs of `vm` from `from` to `to`; updates capacity.
  void MoveVcpus(ActiveVm& vm, NodeId from, NodeId to, int count);

  EventLoop* loop_;
  Config config_;
  std::vector<int> free_;
  std::map<int, ActiveVm> active_;
  std::deque<VmRequest> waiting_;
  Stats stats_;
  MigrateHook on_migrate_;
  PlaceHook on_place_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SCHED_FRAGBFF_H_

// Physical server model: a set of pCPUs, RAM capacity, and locally attached
// devices. Hypervisor instances (core/hypervisor_instance.h) run on nodes.

#ifndef FRAGVISOR_SRC_HOST_NODE_H_
#define FRAGVISOR_SRC_HOST_NODE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/host/cost_model.h"
#include "src/host/pcpu.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/event_loop.h"

namespace fragvisor {

// Per-VM resource accounting on a multi-tenant node. Every byte of memory,
// vCPU slot, and delegated I/O backend a node contributes to some aggregate
// VM is tagged with the borrowing VM's id, so the cluster orchestrator can
// answer "who holds what here" and a lender can call resources home from one
// tenant without touching another's.
class TenantLedger {
 public:
  struct VmShare {
    uint64_t mem_bytes = 0;
    int vcpu_slots = 0;
    int io_backends = 0;
  };

  void Init(uint64_t mem_capacity, int vcpu_capacity) {
    mem_capacity_ = mem_capacity;
    vcpu_capacity_ = vcpu_capacity;
  }

  uint64_t mem_capacity() const { return mem_capacity_; }
  int vcpu_capacity() const { return vcpu_capacity_; }
  uint64_t committed_mem() const { return committed_mem_; }
  int committed_vcpus() const { return committed_vcpus_; }
  uint64_t free_mem() const { return mem_capacity_ - committed_mem_; }
  int free_vcpus() const { return vcpu_capacity_ - committed_vcpus_; }
  int num_tenants() const { return static_cast<int>(shares_.size()); }

  // Checked admission: fails (without side effects) if the node would
  // oversubscribe committed memory or vCPU slots.
  bool Reserve(uint64_t vm, uint64_t mem_bytes, int vcpu_slots, int io_backends = 0) {
    if (committed_mem_ + mem_bytes > mem_capacity_) return false;
    if (committed_vcpus_ + vcpu_slots > vcpu_capacity_) return false;
    ForceReserve(vm, mem_bytes, vcpu_slots, io_backends);
    return true;
  }

  // Unchecked admission, for legacy single-VM configurations that
  // deliberately overcommit (e.g. OvercommitPlacement timesharing pCPUs).
  void ForceReserve(uint64_t vm, uint64_t mem_bytes, int vcpu_slots, int io_backends = 0) {
    VmShare& s = shares_[vm];
    s.mem_bytes += mem_bytes;
    s.vcpu_slots += vcpu_slots;
    s.io_backends += io_backends;
    committed_mem_ += mem_bytes;
    committed_vcpus_ += vcpu_slots;
  }

  // Returns part of a tenant's share. Releasing more than the tenant holds
  // is a bookkeeping bug.
  void Release(uint64_t vm, uint64_t mem_bytes, int vcpu_slots, int io_backends = 0) {
    auto it = shares_.find(vm);
    FV_CHECK(it != shares_.end());
    VmShare& s = it->second;
    FV_CHECK_GE(s.mem_bytes, mem_bytes);
    FV_CHECK_GE(s.vcpu_slots, vcpu_slots);
    FV_CHECK_GE(s.io_backends, io_backends);
    s.mem_bytes -= mem_bytes;
    s.vcpu_slots -= vcpu_slots;
    s.io_backends -= io_backends;
    committed_mem_ -= mem_bytes;
    committed_vcpus_ -= vcpu_slots;
    if (s.mem_bytes == 0 && s.vcpu_slots == 0 && s.io_backends == 0) {
      shares_.erase(it);
    }
  }

  // Drops every resource `vm` holds here (VM departure / full reclamation).
  VmShare ReleaseAll(uint64_t vm) {
    auto it = shares_.find(vm);
    if (it == shares_.end()) return VmShare{};
    const VmShare s = it->second;
    committed_mem_ -= s.mem_bytes;
    committed_vcpus_ -= s.vcpu_slots;
    shares_.erase(it);
    return s;
  }

  VmShare ShareOf(uint64_t vm) const {
    auto it = shares_.find(vm);
    return it == shares_.end() ? VmShare{} : it->second;
  }

  // Ordered (by VM id) view for deterministic iteration and snapshots.
  const std::map<uint64_t, VmShare>& shares() const { return shares_; }

 private:
  uint64_t mem_capacity_ = 0;
  int vcpu_capacity_ = 0;
  uint64_t committed_mem_ = 0;
  int committed_vcpus_ = 0;
  std::map<uint64_t, VmShare> shares_;
};

class Node {
 public:
  Node(EventLoop* loop, NodeId id, int num_pcpus, uint64_t ram_bytes, const CostModel* costs);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  int num_pcpus() const { return static_cast<int>(pcpus_.size()); }
  uint64_t ram_bytes() const { return ram_bytes_; }

  PCpu& pcpu(int index) {
    FV_CHECK_GE(index, 0);
    FV_CHECK_LT(index, num_pcpus());
    return *pcpus_[static_cast<size_t>(index)];
  }

  // Aggregate busy time across all pCPUs.
  TimeNs total_busy_time() const;

  // Multi-tenant accounting: which VMs hold memory/vCPU slots/backends here.
  TenantLedger& tenants() { return tenants_; }
  const TenantLedger& tenants() const { return tenants_; }

 private:
  NodeId id_;
  uint64_t ram_bytes_;
  std::vector<std::unique_ptr<PCpu>> pcpus_;
  TenantLedger tenants_;
};

// The simulated testbed: nodes + interconnect + shared cost model and clock.
class Cluster {
 public:
  struct Config {
    int num_nodes = 4;
    int pcpus_per_node = 8;
    uint64_t ram_per_node = 32ull << 30;  // 32 GiB, as in the paper's servers
    LinkParams link = LinkParams::InfiniBand56G();
    CostModel costs = CostModel::Default();
    RpcConfig rpc;  // messaging-layer features (coalescing/QoS), default off
  };

  explicit Cluster(const Config& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  EventLoop& loop() { return loop_; }
  Fabric& fabric() { return *fabric_; }
  RpcLayer& rpc() { return *rpc_; }
  const CostModel& costs() const { return costs_; }
  CostModel& mutable_costs() { return costs_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(NodeId id) {
    FV_CHECK_GE(id, 0);
    FV_CHECK_LT(id, num_nodes());
    return *nodes_[static_cast<size_t>(id)];
  }

 private:
  EventLoop loop_;
  CostModel costs_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<RpcLayer> rpc_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_HOST_NODE_H_

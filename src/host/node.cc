#include "src/host/node.h"

namespace fragvisor {

Node::Node(EventLoop* loop, NodeId id, int num_pcpus, uint64_t ram_bytes, const CostModel* costs)
    : id_(id), ram_bytes_(ram_bytes) {
  FV_CHECK_GT(num_pcpus, 0);
  pcpus_.reserve(static_cast<size_t>(num_pcpus));
  for (int i = 0; i < num_pcpus; ++i) {
    pcpus_.push_back(std::make_unique<PCpu>(loop, id, i, costs));
  }
}

TimeNs Node::total_busy_time() const {
  TimeNs total = 0;
  for (const auto& p : pcpus_) {
    total += p->busy_time();
  }
  return total;
}

Cluster::Cluster(const Config& config) : costs_(config.costs) {
  FV_CHECK_GT(config.num_nodes, 0);
  EventLoop* loop = &loop_;
  fabric_ = std::make_unique<Fabric>(loop, config.num_nodes, config.link);
  rpc_ = std::make_unique<RpcLayer>(loop, fabric_.get(), config.rpc);
  nodes_.reserve(static_cast<size_t>(config.num_nodes));
  for (int i = 0; i < config.num_nodes; ++i) {
    nodes_.push_back(
        std::make_unique<Node>(loop, i, config.pcpus_per_node, config.ram_per_node, &costs_));
  }
  for (auto& node : nodes_) {
    node->tenants().Init(config.ram_per_node, config.pcpus_per_node);
  }
}

}  // namespace fragvisor

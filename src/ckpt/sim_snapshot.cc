#include "src/ckpt/sim_snapshot.h"

#include <algorithm>

namespace fragvisor {

EngineClocks EngineClocks::Of(const EventLoop* loop, ParallelEventLoop* ploop) {
  EngineClocks c;
  if (ploop != nullptr) {
    for (int p = 0; p < ploop->num_partitions(); ++p) {
      c.partitions.push_back({ploop->partition(p)->now(), ploop->next_cancellable_token(p)});
    }
  } else {
    c.serial.push_back(loop->now());
  }
  return c;
}

bool EngineClocks::AnyNegative() const {
  return std::ranges::any_of(partitions, [](const Partition& p) { return p.now < 0; }) ||
         std::ranges::any_of(serial, [](TimeNs t) { return t < 0; });
}

void EngineClocks::Restore(EventLoop* loop, ParallelEventLoop* ploop) const {
  for (size_t p = 0; p < partitions.size(); ++p) {
    ploop->partition(static_cast<int>(p))->AdvanceTo(partitions[p].now);
    ploop->RestoreCancellableToken(static_cast<int>(p), partitions[p].next_token);
  }
  for (const TimeNs t : serial) {
    loop->AdvanceTo(t);
  }
}

void SaveTransportShards(SnapshotWriter* w, Fabric* fabric, RpcLayer* rpc) {
  const int shards = fabric->parallel() ? fabric->num_nodes() : 1;
  w->U32(static_cast<uint32_t>(shards));
  for (NodeId n = 0; n < shards; ++n) {
    SaveState(w, fabric->StatsShardForRestore(n));
    SaveState(w, fabric->RetryShardForRestore(n));
    SaveState(w, rpc->StatsShardForRestore(n));
  }
}

void LoadTransportShards(SnapshotReader* r, const Fabric* fabric, TransportShards* staged) {
  const uint32_t expected =
      static_cast<uint32_t>(fabric->parallel() ? fabric->num_nodes() : 1);
  const uint32_t shards = r->U32();
  if (!r->ok()) {
    return;
  }
  if (shards != expected) {
    r->FailExternal("transport: stat shard count mismatch");
    return;
  }
  staged->fabric.resize(shards);
  staged->retry.resize(shards);
  staged->rpc.resize(shards);
  for (uint32_t n = 0; r->ok() && n < shards; ++n) {
    LoadState(r, &staged->fabric[n]);
    LoadState(r, &staged->retry[n]);
    LoadState(r, &staged->rpc[n]);
  }
}

void CommitTransportShards(const TransportShards& staged, Fabric* fabric, RpcLayer* rpc) {
  for (size_t n = 0; n < staged.fabric.size(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    fabric->StatsShardForRestore(node) = staged.fabric[n];
    fabric->RetryShardForRestore(node) = staged.retry[n];
    rpc->StatsShardForRestore(node) = staged.rpc[n];
  }
}

void SaveFaultPlanState(SnapshotWriter* w, FaultPlan* plan) {
  SaveState(w, plan->mutable_rng());
  w->U32(static_cast<uint32_t>(plan->num_node_streams()));
  for (int n = 0; n < plan->num_node_streams(); ++n) {
    SaveState(w, plan->mutable_node_rng(n));
  }
  SaveState(w, plan->MergedStats());
}

void LoadFaultPlanState(SnapshotReader* r, FaultPlan* plan) {
  LoadState(r, &plan->mutable_rng());
  const uint32_t streams = r->U32();
  if (!r->ok()) {
    return;
  }
  if (streams != static_cast<uint32_t>(plan->num_node_streams())) {
    r->FailExternal("fault_plan: per-node stream count mismatch");
    return;
  }
  for (uint32_t n = 0; n < streams; ++n) {
    LoadState(r, &plan->mutable_node_rng(static_cast<int>(n)));
  }
  // Merged counters land in the plan's global block; per-node shards start
  // fresh and MergedStats() sums to the same totals either way.
  FaultPlanStats staged;
  LoadState(r, &staged);
  if (r->ok()) {
    plan->mutable_stats() = staged;
  }
}

}  // namespace fragvisor

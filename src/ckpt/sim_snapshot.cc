#include "src/ckpt/sim_snapshot.h"

#include "src/sim/state_io.h"

namespace fragvisor {

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
  SaveRng(w, plan->mutable_rng());
  w->U32(static_cast<uint32_t>(plan->num_node_streams()));
  for (int n = 0; n < plan->num_node_streams(); ++n) {
    SaveRng(w, plan->mutable_node_rng(n));
  }
  SaveState(w, plan->MergedStats());
}

void LoadFaultPlanState(SnapshotReader* r, FaultPlan* plan) {
  LoadRng(r, &plan->mutable_rng());
  const uint32_t streams = r->U32();
  if (!r->ok()) {
    return;
  }
  if (streams != static_cast<uint32_t>(plan->num_node_streams())) {
    r->FailExternal("fault_plan: per-node stream count mismatch");
    return;
  }
  for (uint32_t n = 0; n < streams; ++n) {
    LoadRng(r, &plan->mutable_node_rng(static_cast<int>(n)));
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

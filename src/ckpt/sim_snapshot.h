// Snapshot records of the transport layer (fabric, retry, rpc, fault plan)
// that whole-sim snapshots embed (DESIGN.md §10). The stats blocks themselves
// are saved, loaded and merged through their field lists (src/sim/state_io.h);
// what is here is the structure around them.
//
// Transport stats are sharded per sending node in parallel mode, and the
// shards ARE observable (per-node stats tables in reports), so snapshots
// save and restore them shard-for-shard via Save/LoadTransportShards —
// collapsing the merged totals into shard 0 would make a resumed run's
// per-node tables diverge from an unsnapshotted one. Fault-plan RNG streams
// are likewise per-node and restore stream-for-stream; only the fault-plan
// perturbation counters merge by summation (reports read only their sum).

#ifndef FRAGVISOR_SRC_CKPT_SIM_SNAPSHOT_H_
#define FRAGVISOR_SRC_CKPT_SIM_SNAPSHOT_H_

#include <vector>

#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/fault_plan.h"
#include "src/sim/snapshot.h"

namespace fragvisor {

// Per-shard transport stats: one (fabric, retry, rpc) triple per sending
// node in parallel mode, a single triple (the global blocks) in serial mode.
struct TransportShards {
  std::vector<FabricStats> fabric;
  std::vector<RetryStats> retry;
  std::vector<RpcStats> rpc;
};

// Writes the shard count followed by each shard's three blocks.
void SaveTransportShards(SnapshotWriter* w, Fabric* fabric, RpcLayer* rpc);

// Stages the stream into `staged`, validating the shard count against the
// live transport's mode (num_nodes shards in parallel, 1 in serial); a
// mismatch latches an external error and leaves `staged` unusable. Callers
// commit with CommitTransportShards once the whole snapshot validates.
void LoadTransportShards(SnapshotReader* r, const Fabric* fabric, TransportShards* staged);
void CommitTransportShards(const TransportShards& staged, Fabric* fabric, RpcLayer* rpc);

// Complete replayable fault-plan state: the legacy draw stream, every
// per-node draw stream, and the merged perturbation counters. The load side
// requires a plan built from the same schedule (same seed, same
// EnablePerNodeStreams width) — the stream count is validated, and a
// mismatch latches an error without touching the plan.
void SaveFaultPlanState(SnapshotWriter* w, FaultPlan* plan);
void LoadFaultPlanState(SnapshotReader* r, FaultPlan* plan);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_CKPT_SIM_SNAPSHOT_H_

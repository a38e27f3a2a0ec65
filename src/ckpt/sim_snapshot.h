// Snapshot records that whole-sim snapshots share (DESIGN.md §10): the run's
// progress and engine clocks, which the storm and the marketplace save alike,
// and the transport layer (fabric, retry, rpc, fault plan). Records are saved
// and loaded through their field lists (src/sim/state_io.h); what else is
// here is the structure around them.
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
#include "src/sim/event_loop.h"
#include "src/sim/fault_plan.h"
#include "src/sim/parallel_loop.h"
#include "src/sim/snapshot.h"
#include "src/sim/state_io.h"

namespace fragvisor {

// The epochs (marketplace waves) a run completed, and the events it took.
struct RunProgress {
  int epochs = 0;
  uint64_t events = 0;

  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(As<uint32_t>(s.epochs)...);
    v(s.events...);
  }
};

// The engine's clocks at a drained boundary. Everything else there (link busy
// and arrival clamps, in-flight reliable sends, event sequence numbers) equals
// a fresh engine's, so the clocks are the only engine state on the wire.
struct EngineClocks {
  struct Partition {
    TimeNs now = 0;
    uint32_t next_token = 0;  // the partition's cancellable-token counter

    template <typename V, typename... S>
    static constexpr void Fields(V&& v, S&... s) {
      v(s.now...);
      v(s.next_token...);
    }
  };
  std::vector<Partition> partitions;  // the parallel engine's, one per partition
  std::vector<TimeNs> serial;         // the serial engine's one clock

  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.partitions...);
    v(s.serial...);
  }

  // The clocks of whichever engine is non-null; a fresh engine's give a
  // loader the shape to read into.
  static EngineClocks Of(const EventLoop* loop, ParallelEventLoop* ploop);
  // A loader refuses these: AdvanceTo aborts on a time regression.
  bool AnyNegative() const;
  void Restore(EventLoop* loop, ParallelEventLoop* ploop) const;
};

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

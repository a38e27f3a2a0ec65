// Deterministic fault-injection plan.
//
// A FaultPlan is a seeded schedule of everything that can go wrong in the
// cluster: node crashes and restarts, link partitions (and their heals), and
// per-link stochastic message perturbation (drop / duplicate / extra queueing
// delay). The transport (net::Fabric) consults the attached plan for every
// message it puts on the wire; the plan's own xoshiro RNG makes every
// perturbation decision, so a given seed replays the exact same fault
// sequence — bit-identical counters, bit-identical timing — run after run.
//
// The plan is *passive* state plus one active element: Arm() schedules a
// marker event on the event loop for every crash/restart/partition
// transition, which stamps the transition counters at the simulated time it
// takes effect and emits a kFault trace record. An empty plan arms nothing,
// consumes no RNG, and perturbs nothing — attaching it to a fabric is
// observationally free.
//
// Node ids are plain int32_t here (sim/ sits below net/ and cannot name
// NodeId); the fabric validates ranges at attach time.

#ifndef FRAGVISOR_SRC_SIM_FAULT_PLAN_H_
#define FRAGVISOR_SRC_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/state_io.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {

class EventLoop;
class ParallelEventLoop;

// Stochastic perturbation profile for one directed link.
struct LinkFaultProfile {
  double drop_prob = 0.0;       // message vanishes on the wire
  double dup_prob = 0.0;        // receiver NIC sees the message twice
  TimeNs extra_delay_max = 0;   // uniform extra queueing delay in [0, max]

  bool active() const { return drop_prob > 0.0 || dup_prob > 0.0 || extra_delay_max > 0; }
};

// A run's fault schedule: one perturbation profile for every link, plus
// node crashes, node restarts and link partitions. Empty by default; a run
// with `!any()` attaches no plan at all. FaultPlan::Schedule installs it.
struct FaultSchedule {
  struct NodeEvent {
    int32_t node = -1;
    TimeNs at = 0;
  };
  struct Cut {  // both directions between a and b during [from, until)
    int32_t a = -1;
    int32_t b = -1;
    TimeNs from = 0;
    TimeNs until = 0;
  };

  LinkFaultProfile link;
  std::vector<NodeEvent> crashes;
  std::vector<NodeEvent> restarts;
  std::vector<Cut> partitions;

  bool any() const {
    return link.active() || !crashes.empty() || !restarts.empty() || !partitions.empty();
  }

  // The option keys (src/sim/options_text.h); lists are in milliseconds:
  // fault_crash=n@ms,...  fault_partition=a-b@ms-ms,...
  template <typename V>
  void Visit(V&& v) {
    v("fault_drop", link.drop_prob);
    v("fault_dup", link.dup_prob);
    v("fault_delay_us", link.extra_delay_max, kMicrosecond);
    v("fault_crash", crashes);
    v("fault_restart", restarts);
    v("fault_partition", partitions);
  }
};

// What happened, stamped as it happens (so two runs of the same seed can be
// compared counter-for-counter).
struct FaultPlanStats {
  Counter messages_dropped;     // stochastic drops + partition/crash losses
  Counter messages_duplicated;
  Counter messages_delayed;
  Counter node_crashes;
  Counter node_restarts;
  Counter partitions_cut;
  Counter partitions_healed;

  // The field list (src/sim/state_io.h), in snapshot wire order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.messages_dropped...);
    v(s.messages_duplicated...);
    v(s.messages_delayed...);
    v(s.node_crashes...);
    v(s.node_restarts...);
    v(s.partitions_cut...);
    v(s.partitions_healed...);
  }
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  uint64_t seed() const { return seed_; }

  // True when nothing is configured: no link profiles, no crashes, no
  // partitions. An empty plan never perturbs a message.
  bool empty() const;

  // --- Schedule (normally before the run; mid-run additions are honored
  // from the moment they are made) ---

  // Perturbation profile for every directed link without a specific one.
  void SetDefaultLinkFaults(const LinkFaultProfile& profile);
  // Perturbation profile for the directed link src -> dst.
  void SetLinkFaults(int32_t src, int32_t dst, const LinkFaultProfile& profile);

  // Node `node` falls silent at `at`: messages it sends are never emitted,
  // messages addressed to it are lost on arrival.
  void CrashNode(int32_t node, TimeNs at);
  // Node `node` comes back at `at` (fresh hypervisor instance; recovery of
  // its lost state is the protocols' problem, not the plan's).
  void RestartNode(int32_t node, TimeNs at);

  // Cuts both directions between `a` and `b` during [from, until).
  void PartitionLink(int32_t a, int32_t b, TimeNs from, TimeNs until);

  // Installs `schedule` on a cluster of `num_nodes`: the link profile (when
  // active) as the default, then crashes, restarts and partitions in list
  // order. Every node id must be below `num_nodes`, and a partition's two
  // ends must differ.
  void Schedule(const FaultSchedule& schedule, int num_nodes);

  // --- Transport-side queries ---

  bool NodeUp(int32_t node, TimeNs now) const;
  // True if a partition (not a crash) cuts src -> dst at `now`.
  bool LinkCut(int32_t src, int32_t dst, TimeNs now) const;
  // Most recent crash time <= now for `node`, or -1 if it never crashed.
  TimeNs LastCrashBefore(int32_t node, TimeNs now) const;

  struct Perturbation {
    bool drop = false;
    bool duplicate = false;
    TimeNs extra_delay = 0;     // added to the message's arrival time
    TimeNs duplicate_lag = 0;   // the copy trails the original by this much
  };

  // Decides the fate of one message on src -> dst sent at `now`. Consumes
  // RNG draws only when the link has an active profile; calls happen in
  // deterministic event order, so the decision stream replays exactly.
  //
  // With per-node streams enabled, the draw comes from `src`'s private
  // stream and the bookkeeping lands in `src`'s stats shard — the decision
  // then depends only on src-local event order, which is what makes the plan
  // usable (and replayable at any thread count) under the parallel core.
  Perturbation Perturb(int32_t src, int32_t dst, TimeNs now);

  // Switches Perturb() to one independent RNG stream (forked off the seed)
  // and one stats shard per sending node. Call before the first Perturb();
  // the legacy single-stream path is untouched when this is never called, so
  // existing seeds replay byte-identically.
  void EnablePerNodeStreams(int num_nodes);
  bool per_node_streams() const { return !node_rngs_.empty(); }

  // Stats shard of one sending node (valid after EnablePerNodeStreams).
  // Transports running node-parallel must account losses here, never in
  // mutable_stats().
  FaultPlanStats& ShardStats(int32_t node) {
    FV_CHECK_GE(node, 0);
    FV_CHECK_LT(static_cast<size_t>(node), shard_stats_.size());
    return shard_stats_[static_cast<size_t>(node)];
  }

  // Schedules the crash/restart/partition transition markers on `loop`
  // (Fabric::AttachFaultPlan calls this). Transitions added after Arm() are
  // scheduled immediately.
  void Arm(EventLoop* loop);
  // Parallel-core variant: each transition marker is scheduled on the
  // partition loop of the node it concerns (partitions on the lower
  // endpoint), stamping that node's stats shard. Requires per-node streams.
  // Mid-run schedule additions are not supported in this mode.
  void ArmParallel(ParallelEventLoop* ploop);
  bool armed() const { return loop_ != nullptr || ploop_ != nullptr; }

  const FaultPlanStats& stats() const { return stats_; }
  FaultPlanStats& mutable_stats() { return stats_; }

  // Snapshot serialization: the draw streams ARE the plan's dynamic state —
  // restoring them (plus the stats counters) resumes the exact perturbation
  // sequence. The static schedule (profiles, transitions, partitions) is
  // reconstructed from configuration, not serialized.
  Rng& mutable_rng() { return rng_; }
  int num_node_streams() const { return static_cast<int>(node_rngs_.size()); }
  Rng& mutable_node_rng(int node) {
    FV_CHECK_GE(node, 0);
    FV_CHECK_LT(static_cast<size_t>(node), node_rngs_.size());
    return node_rngs_[static_cast<size_t>(node)];
  }

  // Base stats plus every per-node shard (order-independent sums, so the
  // merged view is identical at any worker count).
  FaultPlanStats MergedStats() const { return MergeShards(stats_, shard_stats_); }

 private:
  struct NodeTransition {
    TimeNs at = 0;
    bool up = false;
  };
  struct Partition {
    int32_t a = -1;
    int32_t b = -1;
    TimeNs from = 0;
    TimeNs until = 0;
  };

  const LinkFaultProfile* ProfileFor(int32_t src, int32_t dst) const;
  Perturbation PerturbWith(Rng& rng, FaultPlanStats& stats, int32_t src, int32_t dst);
  void ArmNodeTransition(int32_t node, const NodeTransition& t);
  void ArmPartition(const Partition& p);

  uint64_t seed_;
  Rng rng_;
  std::vector<Rng> node_rngs_;              // per-node streams (may be empty)
  std::vector<FaultPlanStats> shard_stats_; // parallel-safe per-node shards
  LinkFaultProfile default_profile_;
  bool have_default_profile_ = false;
  std::map<std::pair<int32_t, int32_t>, LinkFaultProfile> link_profiles_;
  // Per-node up/down transitions, kept sorted by time (nodes start up).
  std::map<int32_t, std::vector<NodeTransition>> transitions_;
  std::vector<Partition> partitions_;
  EventLoop* loop_ = nullptr;
  ParallelEventLoop* ploop_ = nullptr;
  FaultPlanStats stats_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_FAULT_PLAN_H_

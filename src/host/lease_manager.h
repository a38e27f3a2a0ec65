// Time-bounded leases over borrowed resources (Sec. 3 "borrow them from
// other nodes" — hardened).
//
// Every resource an Aggregate VM borrows from a remote slice — memory the
// lender hosts, a vCPU slot on its pCPUs, a delegated I/O backend — is
// covered by a lease the borrower must keep renewing over the fabric's
// latency class. The lease is the contract that makes borrowing safe to
// undo: when a lender wants its resources back it revokes, when the
// borrower stops renewing (crashed, partitioned) the lender reclaims at
// expiry, and when the lender dies the failed renewal tells the borrower
// the resource is gone. In all three cases the registered handback runs so
// the VM hands the resource back (or re-homes it) in an orderly fashion
// instead of wedging on a dead peer.
//
// The manager is generic: it tracks (lender, borrower, kind, resource_id)
// tuples and drives the renew/expire/revoke state machine; what a resource
// *is* and how it is handed back is the caller's business, expressed in the
// HandbackFn. Nothing here touches VM state, so the class lives in
// src/host/ below fv_core.
//
// Determinism: lease traffic uses MsgKind::kLease over the default QoS
// pass-through; a run without a LeaseManager attached sends no lease
// messages, so golden traces of existing configurations are unchanged.

#ifndef FRAGVISOR_SRC_HOST_LEASE_MANAGER_H_
#define FRAGVISOR_SRC_HOST_LEASE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/net/rpc.h"
#include "src/sim/event_loop.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fragvisor {

enum class LeaseKind : uint8_t {
  kMemory = 0,    // borrowed DSM-backed memory hosted by the lender
  kVcpu = 1,      // a vCPU slot on the lender's pCPUs
  kIoBackend = 2, // a delegated virtio/accel backend on the lender
};

const char* LeaseKindName(LeaseKind kind);

// Why a lease stopped being held.
enum class LeaseEvent : uint8_t {
  kExpired = 0,   // borrower stopped renewing; lender reclaimed at expiry
  kRevoked = 1,   // lender asked for the resource back
  kReleased = 2,  // borrower returned it voluntarily
  kLost = 3,      // lender unreachable/dead; the resource is gone
};

const char* LeaseEventName(LeaseEvent event);

using LeaseId = uint64_t;
inline constexpr LeaseId kInvalidLease = 0;

struct Lease {
  LeaseId id = kInvalidLease;
  NodeId lender = kInvalidNode;
  NodeId borrower = kInvalidNode;
  LeaseKind kind = LeaseKind::kMemory;
  uint64_t resource = 0;       // caller-defined: vCPU index, device slot, ...
  uint64_t vm = 0;             // borrowing VM id (multi-tenant); 0 = untagged
  TimeNs granted_at = 0;
  TimeNs expires_at = 0;
  bool active = false;         // grant acked and not yet terminated
};

struct LeaseManagerConfig {
  TimeNs duration = Millis(200);       // validity window per grant/renewal
  TimeNs renew_interval = Millis(80);  // borrower re-ups this often
  bool auto_renew = true;              // off: leases run to expiry
  uint64_t msg_bytes = 128;            // grant/renew/revoke wire size
  // No renewal or expiry timers at all: leases live until an explicit
  // Revoke/Release/OnNodeFailure. A cluster orchestrator that arbitrates
  // reclamation itself wants exactly this — between its epochs every event
  // queue drains, which standing timers would prevent.
  bool manual_clock = false;
};

struct LeaseStats {
  Counter granted;
  Counter renewed;
  Counter expired;
  Counter revoked;
  Counter released;
  Counter renew_failures;  // renewals the reliable fabric gave up on
  Counter handbacks;       // involuntary handbacks (expired/revoked/lost)

  // Book-entry conservation counters. Every entry enters the book via a
  // Grant call (`requested`) or RestoreActiveLease (`restored`) and leaves
  // it via exactly one of expired/revoked/released/lost/dropped/orphaned/
  // failover_cleared — so at any drained point:
  //   requested + restored == expired + revoked + released + lost + dropped
  //                           + orphaned + failover_cleared + (entries left)
  // which is the invariant a cluster-level chaos checker asserts.
  Counter requested;         // Grant calls (activated or not)
  Counter lost;              // terminated kLost (dead/unreachable lender)
  Counter dropped;           // Drop(): owner tore the entry down silently
  Counter orphaned;          // OnNodeFailure retired a dead borrower's lease
  Counter restored;          // RestoreActiveLease reinstatements
  Counter failover_cleared;  // entries wiped by FailoverReset (book died)

  // The field list (src/sim/state_io.h), in snapshot wire order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.granted...);
    v(s.renewed...);
    v(s.expired...);
    v(s.revoked...);
    v(s.released...);
    v(s.renew_failures...);
    v(s.handbacks...);
    v(s.requested...);
    v(s.lost...);
    v(s.dropped...);
    v(s.orphaned...);
    v(s.restored...);
    v(s.failover_cleared...);
  }
};

class LeaseManager {
 public:
  // Runs when a lease terminates involuntarily (kExpired/kRevoked/kLost) —
  // the resource must be handed back or re-homed — and, for symmetry, after
  // a voluntary Release (kReleased) so callers can centralize cleanup.
  using HandbackFn = std::function<void(const Lease&, LeaseEvent)>;

  LeaseManager(RpcLayer* rpc, LeaseManagerConfig config = LeaseManagerConfig());

  // Home-pinned mode, for a cluster orchestrator resident on node `home`:
  // every protocol exchange is a round trip `home` -> counterparty ->
  // `home`, and the lease book only mutates in the home-bound leg. On a
  // parallel-core fabric a delivery continuation runs on the destination's
  // partition, so this routing pins the whole book to home's partition while
  // the wire traffic still crosses to the real lender/borrower. Requires
  // config.manual_clock (the orchestrator drives reclamation itself; no
  // standing renewal/expiry timers), and Grant/Revoke/Release must be called
  // from home's partition.
  LeaseManager(RpcLayer* rpc, NodeId home, LeaseManagerConfig config = LeaseManagerConfig());

  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  // Asks `lender` to lease `resource` of `kind` to `borrower`. Returns the
  // lease id immediately; the lease turns active when the lender's ack
  // arrives, after which renewals are scheduled automatically. If the grant
  // itself fails (lender dead), `handback` runs with kLost.
  LeaseId Grant(NodeId lender, NodeId borrower, LeaseKind kind, uint64_t resource,
                HandbackFn handback);

  // As above, tagging the lease with the borrowing VM's id so per-tenant
  // reclamation can find exactly the leases it may touch.
  LeaseId Grant(NodeId lender, NodeId borrower, LeaseKind kind, uint64_t resource, uint64_t vm,
                HandbackFn handback);

  // Lender-initiated: asks the borrower to give the resource back. The
  // handback runs with kRevoked once the borrower is notified (kLost if the
  // notification cannot be delivered).
  void Revoke(LeaseId id);

  // Borrower-initiated: returns the resource voluntarily, notifying the
  // lender. The handback runs with kReleased.
  void Release(LeaseId id);

  // Tears down every lease touching `node`. Leases it lent are lost (the
  // resource died with it — handback kLost fires so borrowers re-home);
  // leases it held as borrower are silently retired (failure recovery
  // repatriates those resources out-of-band).
  void OnNodeFailure(NodeId node);

  const Lease* Find(LeaseId id) const;
  int ActiveLeases() const;

  // Active leases lent by `lender` to VM `vm` — the set a per-tenant
  // reclamation (call memory home from tenant A to admit tenant B) may
  // revoke, and nothing else. Ordered by lease id (deterministic).
  std::vector<LeaseId> ActiveLeasesByLender(NodeId lender, uint64_t vm) const;

  // Every active lease tagged with `vm`, ordered by lease id.
  std::vector<LeaseId> ActiveLeasesOfVm(uint64_t vm) const;

  const LeaseManagerConfig& config() const { return config_; }
  const LeaseStats& stats() const { return stats_; }

  // --- Snapshot support (manual-clock books only) ---
  //
  // An orchestrator that snapshots at drained quiesce points serializes its
  // lease book itself (it knows every lease it granted); these hooks let it
  // reinstate the book on load without any protocol traffic. Restoring is
  // only coherent when no timers would need re-arming, hence manual_clock.

  // Reinstates an already-active lease verbatim, including its id.
  void RestoreActiveLease(const Lease& lease, HandbackFn handback);

  // Withdraws a lease from the book without protocol traffic or handback —
  // for owners tearing down the borrower that no longer care about the
  // grant's fate (e.g. a VM departing before its grant ack returned).
  void Drop(LeaseId id);

  // Orchestrator failover (home-pinned books only): the node hosting the
  // book died and a successor is rebuilding it from its journal plus
  // per-node interrogation. Wipes every entry (counted as failover_cleared —
  // the old book died with its home; surviving leases are reinstated with
  // fresh ids via RestoreActiveLease) and re-homes the manager so all future
  // protocol legs round-trip through `new_home`'s partition. In-flight
  // continuations of the old home hold ids no longer in the book and no-op.
  void FailoverReset(NodeId new_home);
  NodeId home() const { return home_; }
  LeaseId next_id() const { return next_id_; }
  void RestoreNextId(LeaseId id) { next_id_ = id; }
  LeaseStats* mutable_stats() { return &stats_; }

 private:
  void ArmRenewal(LeaseId id);
  void ArmExpiry(LeaseId id);
  void Activate(LeaseId id);
  void Terminate(LeaseId id, LeaseEvent event);

  bool home_pinned() const { return home_ != kInvalidNode; }

  RpcLayer* rpc_;
  EventLoop* loop_;
  LeaseManagerConfig config_;
  NodeId home_ = kInvalidNode;  // home-pinned mode when valid
  LeaseId next_id_ = 1;
  std::map<LeaseId, Lease> leases_;
  std::map<LeaseId, HandbackFn> handbacks_;
  LeaseStats stats_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_HOST_LEASE_MANAGER_H_

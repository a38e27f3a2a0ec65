// Distributed shared memory engine for the guest pseudo-physical address
// space of one Aggregate VM.
//
// Protocol: directory-based single-writer/multiple-reader write-invalidate
// coherence at 4 KiB page granularity with ownership migration, in the style
// of the Popcorn Linux DSM that FragVisor builds on. The *origin* (bootstrap)
// node hosts the directory for every page — faults from the origin save a
// network hop, exactly as in the real system.
//
// Fault walk-through (requester R, home H, owner O, sharers S):
//   read  R!=H : R --req--> H --forward--> O --page--> R   (2-3 hops)
//   write R!=H : R --req--> H --inval--> each s in S\{R}; O piggybacks the
//                page on its invalidation ack straight to R; H completes when
//                all acks arrive and R has the page.
// Every message delivery pays a handler cost on the receiving host kernel
// (dsm_handler); user-space DSM implementations (GiantVM) additionally pay
// dsm_userspace_extra per handler — that single knob is most of Fig. 9.
//
// Contextual DSM (Sec. 5.1/6.1): the hypervisor knows what certain guest
// pages contain. Page-table pages piggyback their deltas on the TLB-shootdown
// interrupt the guest must send anyway, skipping the invalidation round and
// the full-page transfer.
//
// State layout: directory state (owner, sharer mask, hold timer) and per-node
// residency rights live in one two-level radix page table — a root array of
// 512-page leaves. The local-hit fast path in Access/WouldHit is two array
// indexes and a bit test; per-node access rights are packed into per-leaf
// present/writable bitmaps (one bit per page per node) instead of one hash
// entry per (node, page). Transaction waiter queues hang off a side map keyed
// by page — only contended pages ever touch it.

#ifndef FRAGVISOR_SRC_MEM_DSM_H_
#define FRAGVISOR_SRC_MEM_DSM_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/host/cost_model.h"
#include "src/net/rpc.h"
#include "src/sim/event_loop.h"
#include "src/sim/state_io.h"
#include "src/sim/stats.h"

namespace fragvisor {

// Guest pseudo-physical page number (GPA >> 12).
using PageNum = uint64_t;

// Local access rights a node currently holds for a page.
enum class PageAccess : uint8_t { kNone = 0, kRead = 1, kWrite = 2 };

// What the hypervisor knows the page contains (contextual DSM).
enum class PageClass : uint8_t {
  kGuestPrivate,  // application anonymous memory
  kKernelShared,  // hot kernel data structures shared by all vCPUs
  kPageTable,     // guest page tables (piggybacked with TLB shootdowns)
  kIoRing,        // virtio TX/RX rings (bypassable)
  kReadMostly,    // kernel text, ACPI/interrupt tables
  kCount,
};

const char* PageClassName(PageClass cls);

// Aggregated DSM measurements.
struct DsmStats {
  Counter read_faults;
  Counter write_faults;
  Counter invalidations;
  Counter page_transfers;
  Counter prefetched_pages;
  Counter protocol_messages;
  Counter protocol_bytes;
  std::array<Counter, static_cast<size_t>(PageClass::kCount)> faults_by_class;
  Summary fault_latency_ns;

  // Fast-path counters (all zero unless the corresponding Options flag is
  // on). hint_hits + hint_stale equals the number of hinted dispatches: a
  // hinted request either is served directly by the predicted owner or is
  // forwarded to the home (wrong/dead prediction, or a write that needs the
  // directory's invalidation round).
  Counter hint_hits;
  Counter hint_stale;
  Counter replica_reads;        // read faults served by a replica, no directory
  Counter region_transfers;     // read replies widened beyond read_prefetch_pages
  Counter read_mostly_promotions;  // leaves promoted by the fault-history detector
  Counter hold_escalations;        // adaptive ownership-hold scale-ups

  // Transport fast-path counters (zero unless rdma_read / compress is on).
  Counter rdma_reads;            // one-sided read pulls (no remote handler)
  Counter compressed_transfers;  // page bodies shipped at a compressed size
  Counter delta_transfers;       // refetches shipped as version deltas
  Counter transfer_bytes_saved;  // wire bytes avoided vs the full-size model

  // Fault-tolerance counters (all zero unless a FaultPlan is attached to the
  // fabric). Attribution is to the transaction's requester.
  NodeCounterSet txn_retries;    // protocol attempts re-executed after a loss
  NodeCounterSet txn_absorbed;   // transactions retired without a grant: the
                                 // requester died; its vCPU refaults or fails over
  NodeCounterSet write_aborts;   // write rounds abandoned on a failed invalidate
  Counter pages_reclaimed;       // dead peers stripped from directory entries

  // Surgical recovery counters (RecoverDeadOwner).
  Counter pages_promoted;        // surviving read replica promoted to owner
  Counter pages_rehomed_clean;   // only copy died, but the ckpt image is current
  Counter pages_lost_dirty;      // only copy died AND was written since the ckpt

  uint64_t total_faults() const { return read_faults.value() + write_faults.value(); }

  // The field list (src/sim/state_io.h), in snapshot wire order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.read_faults...);
    v(s.write_faults...);
    v(s.invalidations...);
    v(s.page_transfers...);
    v(s.prefetched_pages...);
    v(s.protocol_messages...);
    v(s.protocol_bytes...);
    v(s.faults_by_class...);
    v(s.fault_latency_ns...);
    v(s.hint_hits...);
    v(s.hint_stale...);
    v(s.replica_reads...);
    v(s.region_transfers...);
    v(s.read_mostly_promotions...);
    v(s.hold_escalations...);
    v(s.txn_retries...);
    v(s.txn_absorbed...);
    v(s.write_aborts...);
    v(s.pages_reclaimed...);
    v(s.pages_promoted...);
    v(s.pages_rehomed_clean...);
    v(s.pages_lost_dirty...);
    v(s.rdma_reads...);
    v(s.compressed_transfers...);
    v(s.delta_transfers...);
    v(s.transfer_bytes_saved...);
  }
};

class DsmEngine {
 public:
  struct Options {
    NodeId home = 0;      // origin node: hosts the directory
    int num_nodes = 1;    // max node id + 1 (<= 32)
    bool contextual_dsm = true;
    bool userspace_dsm = false;     // GiantVM-style: pay dsm_userspace_extra per handler
    bool ept_dirty_tracking = false;  // hardware A/D bits generating extra traffic
    // Sequential read prefetch: on a read fault, the owner piggybacks up to
    // this many following pages (same owner, idle, absent at the requester)
    // onto the reply — bulk transfers amortize the protocol round trips for
    // streaming access patterns (socket copies, scans). 0 disables.
    int read_prefetch_pages = 0;

    // --- Protocol fast paths (all off by default; off is an exact
    // pass-through, proven byte-identical by the golden-trace guards) ---

    // Per-node owner-hint cache: a requester with a hint sends its fault
    // request straight to the predicted owner, who serves the page and
    // notifies the home asynchronously (kDsmOwnerNotify). A stale hint
    // forwards the request to the home, exactly Popcorn's forwarding path.
    // Hints are refreshed by piggybacking the current owner on every read
    // grant and on every invalidation delivery.
    bool owner_hints = false;
    // Read-mostly replication: pages classed kReadMostly (or promoted by the
    // per-leaf fault-history detector) serve read faults from any live
    // replica without touching the directory; writes pay an epoch-bump
    // invalidation multicast over every live node instead of just the
    // recorded sharers.
    bool read_mostly_replication = false;
    // Adaptive transfer granularity: a per-leaf sequential-stream detector
    // widens read replies into multi-page regions (generalizing
    // read_prefetch_pages), and the anti-ping-pong ownership hold scales up
    // under detected ping-pong and back down when contention clears.
    bool adaptive_granularity = false;
    // Widest region the stream detector may ship on one reply.
    int max_region_pages = 16;

    // --- Transport fast paths (off by default; off is an exact pass-through)

    // One-sided RDMA-read page pulls: a hinted or replica-directed read fault
    // posts a wire-level one-sided read against the predicted holder instead
    // of a two-sided request, eliminating the remote-CPU handler hop; the
    // requester pays the link's one_sided_setup cost up front. Only engages
    // on direct serves (the directory path still needs the home's CPU), so
    // it composes with owner_hints / read_mostly_replication.
    bool rdma_read = false;
    // Page compression + delta-diffing: every page body ships at a modeled
    // compressed size (deterministic per-page compressibility class), and a
    // refetch by a node whose cached copy is only a few versions stale ships
    // a delta instead of the full body. Pure size modeling: grants, residency
    // and results are untouched.
    bool compress = false;
    // Seed for the per-page compressibility classes.
    uint64_t compress_seed = 0xC0DEC0DEull;
  };

  DsmEngine(EventLoop* loop, RpcLayer* rpc, const CostModel* costs, const Options& options);

  DsmEngine(const DsmEngine&) = delete;
  DsmEngine& operator=(const DsmEngine&) = delete;

  NodeId home() const { return options_.home; }
  const Options& options() const { return options_; }

  // --- Address-space setup ---

  // Declares `count` pages starting at `start` resident with write access on
  // `owner` (initial population; boot-time memory image lives at the origin).
  void SeedRange(PageNum start, uint64_t count, NodeId owner);

  // Tags a page range with a content class for contextual DSM.
  void SetPageClass(PageNum start, uint64_t count, PageClass cls);

  PageClass ClassOf(PageNum page) const;

  // --- The access path ---

  // Checks an access by a vCPU currently running on `node`. Returns true on a
  // local hit (access allowed; no callback). On a coherence fault returns
  // false, starts the protocol, and calls `done` when the access can retire.
  bool Access(NodeId node, PageNum page, bool is_write, std::function<void()> done);

  // True if `node` could access the page right now without faulting.
  bool WouldHit(NodeId node, PageNum page, bool is_write) const;

  // --- Introspection (tests, checkpoint, migration) ---

  PageAccess ResidentAccess(NodeId node, PageNum page) const;
  NodeId OwnerOf(PageNum page) const;
  uint64_t known_pages() const { return known_pages_; }
  // Pages owned by `node`, in ascending page order.
  std::vector<PageNum> PagesOwnedBy(NodeId node) const;

  // Per-node accounting (for slice reports).
  uint64_t FaultsByNode(NodeId node) const;
  uint64_t ResidentPageCount(NodeId node) const;

  // Failover recovery: re-homes every quiescent page owned by `from` onto
  // `to` (their content comes from the restored checkpoint image). Pages
  // with in-flight transactions are skipped; returns the number moved.
  uint64_t ReseedOwnedBy(NodeId from, NodeId to);

  // --- Dirty-page journal + surgical partial recovery ---

  // The journal tracks, per node, which pages that node has written since the
  // last ClearDirtyJournal() (bookkeeping only: no protocol messages, no
  // timing). The failover manager clears it at every completed checkpoint, so
  // a dirty bit means "this copy's content is newer than the image".
  void ClearDirtyJournal();
  uint64_t DirtyPageCount(NodeId node) const;
  bool IsDirty(NodeId node, PageNum page) const;

  // What a dead lender's loss actually cost, page by page.
  struct PartialLossReport {
    uint64_t pages_owned = 0;       // pages the dead node owned at failure
    uint64_t promoted_sharers = 0;  // a surviving read replica became the owner
    uint64_t rehomed_clean = 0;     // no copy left; image content still valid
    uint64_t lost_dirty = 0;        // no copy left; written since the image
  };

  // Surgical repair after a single dead lender (`dead` must not be the home
  // node, whose death forces a full restore): every page the dead node owned
  // is re-owned by a surviving sharer when one exists (content preserved) or
  // re-homed onto `fallback` for restore from the checkpoint image; the dead
  // node's residency and sharer bits are stripped everywhere. Pages with
  // in-flight transactions are skipped (their retry path repairs them).
  PartialLossReport RecoverDeadOwner(NodeId dead, NodeId fallback);

  // Live memory-slice migration (Sec. 5.2 "live slice migration"): eagerly
  // pre-copies every page `from` owns to `to` in large batches over the
  // fabric, re-homing each batch on arrival (in-flight transactions make a
  // page ineligible for its batch; it stays behind for demand paging).
  // `done` receives the number of pages moved.
  void MigrateOwnedPages(NodeId from, NodeId to, std::function<void(uint64_t moved)> done);

  // Verifies directory/residency invariants; aborts on violation. Returns the
  // number of pages checked (for test assertions).
  uint64_t CheckInvariants() const;

  // --- Snapshot save/load ---

  // Serializes the complete engine state (radix tables with dirty journals,
  // owner hints, class ranges, per-node fault counters, stats) as one tagged
  // section. The engine must be quiescent: no in-flight transactions (busy
  // bits clear, waiter queues empty) — aborts otherwise, because a
  // transaction's continuation closure cannot be serialized.
  void SaveState(SnapshotWriter* w) const;

  // Restores into a freshly constructed engine with identical Options.
  // Follows the reader's soft-error discipline: on malformed input, such as a
  // directory CheckInvariants would reject, returns false with the error
  // latched on the reader and leaves this engine untouched (stage-then-commit).
  bool LoadState(SnapshotReader* r);

  const DsmStats& stats() const { return stats_; }
  DsmStats& mutable_stats() { return stats_; }

 private:
  struct Transaction {
    NodeId requester = kInvalidNode;
    bool is_write = false;
    TimeNs start_time = 0;
    int attempts = 0;  // protocol-level retries so far (fault plans only)
    // Fast-path routing: the node the request was sent to directly (predicted
    // owner or read replica) instead of the home. kInvalidNode on the normal
    // home-directed path and after any forward/retry.
    NodeId via = kInvalidNode;
    bool via_replica = false;  // via was chosen by read-mostly replication
    std::function<void()> done;
  };

  // --- Radix page table ---

  static constexpr uint32_t kLeafBits = 9;
  static constexpr uint32_t kLeafPages = 1u << kLeafBits;       // 512 pages per leaf
  static constexpr uint32_t kLeafWords = kLeafPages / 64;
  static constexpr int kMaxNodes = 32;
  static constexpr PageNum kMaxPages = PageNum{1} << 28;        // 1 TiB of guest memory

  // One radix leaf: flat directory arrays plus packed per-node residency
  // bitmaps, all indexed by the low 9 bits of the page number.
  struct Leaf {
    std::array<int16_t, kLeafPages> owner;       // -1 == kInvalidNode
    std::array<uint32_t, kLeafPages> sharers;    // directory sharer masks
    std::array<TimeNs, kLeafPages> hold_until;   // anti-ping-pong hold
    uint64_t known[kLeafWords] = {};             // page exists in the directory
    uint64_t busy[kLeafWords] = {};              // a transaction holds the entry
    uint64_t present[kMaxNodes][kLeafWords] = {};   // residency: access != none
    uint64_t writable[kMaxNodes][kLeafWords] = {};  // residency: access == write
    uint64_t dirty[kMaxNodes][kLeafWords] = {};     // written since last journal clear

    // --- Fast-path state (updated only when the matching option is on) ---
    // Read-mostly promotion detector: leaf-granularity fault history.
    uint32_t rm_reads = 0;
    uint32_t rm_writes = 0;
    bool rm_promoted = false;
    // Adaptive ownership hold: per-page doubling shift over the base hold.
    std::array<uint8_t, kLeafPages> hold_boost;
    // Sequential-stream detector: per requesting node, the leaf index the
    // next fault would hit if the stream continues, and the run length so
    // far. kStreamIdle marks "no stream in progress".
    static constexpr uint16_t kStreamIdle = 0xFFFF;
    std::array<uint16_t, kMaxNodes> stream_next;
    std::array<uint8_t, kMaxNodes> stream_run;

    Leaf() {
      owner.fill(-1);
      sharers.fill(0);
      hold_until.fill(0);
      hold_boost.fill(0);
      stream_next.fill(kStreamIdle);
      stream_run.fill(0);
    }

    // Saved in part, in wire order: `busy` stays off the wire (the quiesce
    // check pins it to zero). The arrays go out as native-endian images:
    // snapshots are same-machine artifacts, and the images dominate them.
    static constexpr bool kSavedInPart = true;
    template <typename V, typename... S>
    static constexpr void Fields(V&& v, S&... s) {
      v(As<std::byte>(s.owner)...);
      v(As<std::byte>(s.sharers)...);
      v(As<std::byte>(s.hold_until)...);
      v(As<std::byte>(s.known)...);
      v(As<std::byte>(s.present)...);
      v(As<std::byte>(s.writable)...);
      v(As<std::byte>(s.dirty)...);
      v(s.rm_reads...);
      v(s.rm_writes...);
      v(As<uint8_t>(s.rm_promoted)...);
      v(As<std::byte>(s.hold_boost)...);
      v(As<std::byte>(s.stream_next)...);
      v(As<std::byte>(s.stream_run)...);
    }
  };
  using ClassRanges = std::map<PageNum, std::pair<PageNum, PageClass>>;

  static uint32_t Bit(NodeId n) { return 1u << static_cast<uint32_t>(n); }
  static uint32_t Index(PageNum page) { return static_cast<uint32_t>(page) & (kLeafPages - 1); }
  static bool TestBit(const uint64_t* bm, uint32_t i) { return (bm[i >> 6] >> (i & 63)) & 1u; }
  static void SetBit(uint64_t* bm, uint32_t i) { bm[i >> 6] |= uint64_t{1} << (i & 63); }
  static void ClearBit(uint64_t* bm, uint32_t i) { bm[i >> 6] &= ~(uint64_t{1} << (i & 63)); }

  Leaf* FindLeaf(PageNum page) const {
    const size_t li = page >> kLeafBits;
    return li < leaves_.size() ? leaves_[li].get() : nullptr;
  }
  Leaf& EnsureLeaf(PageNum page);
  // Ensures the page has a directory entry (first touch seeds at the origin).
  Leaf& EnsurePage(PageNum page);

  static PageClass ClassIn(const ClassRanges& ranges, PageNum page);
  // The first directory rule leaf `li` breaks, or nullptr; `checked` counts
  // the pages looked at. CheckInvariants aborts on it, LoadState refuses it.
  const char* LeafViolation(const Leaf& leaf, size_t li, const ClassRanges& ranges,
                            uint64_t* checked) const;

  PageAccess AccessOf(const Leaf& leaf, uint32_t i, NodeId node) const {
    const auto n = static_cast<size_t>(node);
    if (TestBit(leaf.writable[n], i)) {
      return PageAccess::kWrite;
    }
    return TestBit(leaf.present[n], i) ? PageAccess::kRead : PageAccess::kNone;
  }
  void SetResident(Leaf& leaf, uint32_t i, NodeId node, PageAccess acc);
  // Drops every node's residency except `keep`, which gets write access.
  void ResetResidency(Leaf& leaf, uint32_t i, NodeId keep);

  // Per-message handler cost on a receiving host (kernel vs user-space DSM).
  TimeNs HandlerCost() const;

  // Directory-side entry points. `txn.done` fires on the requester when the
  // access can retire.
  void StartTransaction(PageNum page, Transaction txn);
  void ExecuteTransaction(PageNum page, Transaction txn);
  void FinishTransaction(PageNum page);

  void RunReadProtocol(PageNum page, Transaction txn);
  void RunWriteProtocol(PageNum page, Transaction txn);
  void RunPageTablePiggyback(PageNum page, Transaction txn);

  // --- Fast-path machinery (inert with all Options flags off) ---

  // Owner-hint side table: one lazily allocated int16 leaf per (node, leaf).
  struct HintLeaf {
    std::array<int16_t, kLeafPages> pred;
    constexpr HintLeaf() { pred.fill(-1); }

    template <typename V, typename... S>
    static constexpr void Fields(V&& v, S&... s) {
      v(As<std::byte>(s.pred)...);
    }
  };
  NodeId HintFor(NodeId node, PageNum page) const;
  // Records `owner` as node's prediction for the page. No-op unless
  // owner_hints is on (keeps the off configuration allocation-identical).
  void SetHint(NodeId node, PageNum page, NodeId owner);

  // Delta-diffing side table: one lazily allocated leaf tracking each page's
  // content version (bumped per write grant) and the last version each node
  // received. Never allocated unless compress is on (keeps the off
  // configuration allocation-identical).
  struct DeltaLeaf {
    std::array<uint16_t, kLeafPages> version;
    std::array<std::array<uint16_t, kLeafPages>, kMaxNodes> last;
    constexpr DeltaLeaf() {
      version.fill(0);
      for (auto& row : last) {
        row.fill(0);
      }
    }

    template <typename V, typename... S>
    static constexpr void Fields(V&& v, S&... s) {
      v(As<std::byte>(s.version)...);
      v(As<std::byte>(s.last)...);
    }
  };
  DeltaLeaf* DeltaFor(PageNum page) const;
  DeltaLeaf& EnsureDelta(PageNum page);
  // Advances the page's content version on a write grant to `writer` (who
  // then holds the current content). No-op unless compress is on.
  void BumpPageVersion(PageNum page, NodeId writer);
  // Modeled wire size of shipping the page body to `to`: a delta when to's
  // cached copy is only a few versions stale, the compressed body otherwise.
  // Records the transport counters and to's new cached version. `payload` is
  // returned untouched when compress is off.
  uint64_t TransferPayloadBytes(PageNum page, NodeId to, uint64_t payload);

  // True when this read dispatch may run as a one-sided RDMA pull: the
  // requester knows exactly which node to read from (hint or replica), so no
  // remote CPU needs to parse the request.
  bool RdmaEligible(MsgKind kind) const {
    return options_.rdma_read && kind == MsgKind::kDsmReadReq;
  }

  // True when read-mostly replication applies to the page: statically classed
  // kReadMostly, or its leaf was promoted by the fault-history detector.
  bool IsReadMostly(const Leaf& leaf, PageNum page) const;
  // Lowest-id live replica other than the requester, or kInvalidNode.
  NodeId PickReadReplica(NodeId requester, PageNum page) const;
  // Leaf-granularity promotion/demotion on every fault (replication only).
  void UpdateReadMostlyDetector(Leaf& leaf, bool is_write);

  // Sends a hinted/replica-directed fault request straight to `target`;
  // a fabric give-up falls back to the home-directed dispatch.
  void SendViaRequest(PageNum page, MsgKind kind, NodeId target, Transaction txn);
  // The unconditional home-directed tail of DispatchFaultRequest.
  void DispatchHomeRequest(PageNum page, MsgKind kind, Transaction txn);

  // Adaptive ownership hold for a write grant: doubles the base hold per
  // detected ping-pong takeover (capped at dsm_ownership_hold_max), decays
  // when the page stops changing hands under pressure. Reads and updates
  // leaf.hold_boost; plain dsm_ownership_hold when adaptive_granularity is
  // off.
  TimeNs OwnershipHold(Leaf& leaf, uint32_t i, bool ownership_moved);
  // Sequential-stream detector: returns how many pages (>= 1, including the
  // faulting one) this read should carry, updating the per-node stream state.
  int StreamRegionPages(Leaf& leaf, uint32_t i, NodeId node);

  // --- Fault tolerance (active only with a FaultPlan on the fabric) ---

  // Requester-side request dispatch with its own retry loop: the request has
  // not reached the directory yet, so no busy bit is held.
  void DispatchFaultRequest(PageNum page, MsgKind kind, Transaction txn);
  // A directory-side protocol hop was abandoned by the fabric. Retries the
  // transaction (with backoff) or absorbs it if the requester is dead.
  void HandleTxnSendFailure(PageNum page, Transaction txn);
  void ScheduleTxnRetry(PageNum page, Transaction txn);
  void RetryTransaction(PageNum page, Transaction txn);
  // Retires a transaction whose requester crashed: done() fires with no
  // residency granted (the vCPU refaults or is failed over), the busy bit is
  // released, waiters continue.
  void AbsorbTransaction(PageNum page, Transaction txn);
  // Strips crashed nodes from the page's sharer mask/residency.
  void ReclaimDeadPeers(PageNum page);
  // Reconciles sharer mask with residency after an aborted attempt; re-homes
  // the page if the owning copy was lost.
  void RepairPage(PageNum page);
  TimeNs RetryBackoff(int attempts) const;

  // `receiver_delay` overrides the per-message handler cost at the receiver;
  // the default (-1) charges HandlerCost(). One-sided RDMA legs pass 0: the
  // remote CPU never runs a handler for them.
  void SendProto(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes, EventLoop::Callback&& cb,
                 EventLoop::Callback&& on_fail = nullptr, QosClass qos = QosClass::kLatency,
                 TimeNs receiver_delay = -1);

  void CompleteFault(PageNum page, const Transaction& txn);

  EventLoop* loop_;
  RpcLayer* rpc_;
  const CostModel* costs_;
  Options options_;

  // Radix root: leaves_[page >> kLeafBits], allocated on first touch.
  std::vector<std::unique_ptr<Leaf>> leaves_;
  uint64_t known_pages_ = 0;
  // Waiter queues for contended pages only (side table off the hot path).
  std::unordered_map<PageNum, std::deque<Transaction>> waiters_;
  // Owner-hint cache: hints_[node][page >> kLeafBits], allocated on first
  // hint write. Empty unless owner_hints is on.
  std::vector<std::vector<std::unique_ptr<HintLeaf>>> hints_;
  // Delta-diffing version cache: delta_[page >> kLeafBits], allocated on
  // first transfer. Empty unless compress is on.
  std::vector<std::unique_ptr<DeltaLeaf>> delta_;
  // Ordered class ranges: start -> (end_exclusive, class).
  ClassRanges class_ranges_;
  std::vector<Counter> node_faults_;  // faults initiated by each node

  DsmStats stats_;
  // Per-send protocol accounting handed to the rpc layer (kept exactly as
  // the hand-rolled SendProto counted: once per issue, including retries).
  RpcLayer::ProtoAccounting proto_accounting_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_MEM_DSM_H_

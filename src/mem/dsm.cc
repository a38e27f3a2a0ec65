#include "src/mem/dsm.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>

#include "src/sim/check.h"
#include "src/sim/snapshot.h"
#include "src/sim/state_io.h"

namespace fragvisor {
namespace {

// Protocol message sizes on the wire.
constexpr uint64_t kMsgHeaderBytes = 64;
constexpr uint64_t kPageDataBytes = 4096 + kMsgHeaderBytes;
constexpr uint64_t kPteDeltaBytes = 256;  // piggybacked page-table delta
constexpr uint64_t kPageBytes = kPageDataBytes - kMsgHeaderBytes;  // raw 4 KiB payload

// A sparse radix table goes out as its length, its allocated-leaf count, and
// each allocated leaf's index (ascending) followed by the leaf's record.
template <typename L>
void SaveTable(SnapshotWriter* w, const std::vector<std::unique_ptr<L>>& table) {
  w->U64(table.size());
  w->U64(table.size() - static_cast<size_t>(std::count(table.begin(), table.end(), nullptr)));
  for (size_t li = 0; li < table.size(); ++li) {
    if (table[li] != nullptr) {
      w->U64(li);
      SaveState(w, *table[li]);
    }
  }
}

// Stages a table SaveTable wrote; `table_name` and `leaf_name` word the
// refusals of a table longer than `max_size` and of indexes out of order.
template <typename L>
void LoadTable(SnapshotReader* r, uint64_t max_size, const char* table_name,
               const char* leaf_name, std::vector<std::unique_ptr<L>>* table) {
  const uint64_t size = r->U64();
  const uint64_t filled = r->U64();
  if (r->ok() && (size > max_size || filled > size)) {
    r->FailExternal(std::string("dsm.engine: ") + table_name +
                    " shape exceeds the guest address space");
  }
  table->resize(r->ok() ? size : 0);
  for (uint64_t i = 0, prev = 0; r->ok() && i < filled; ++i) {
    const uint64_t li = r->U64();
    if (r->ok() && (li >= size || (i > 0 && li <= prev))) {
      r->FailExternal(std::string("dsm.engine: ") + leaf_name + " indexes out of order");
    }
    if (r->ok()) {
      prev = li;
      (*table)[li] = std::make_unique<L>();
      LoadState(r, (*table)[li].get());
    }
  }
}

}  // namespace

const char* PageClassName(PageClass cls) {
  switch (cls) {
    case PageClass::kGuestPrivate:
      return "guest_private";
    case PageClass::kKernelShared:
      return "kernel_shared";
    case PageClass::kPageTable:
      return "page_table";
    case PageClass::kIoRing:
      return "io_ring";
    case PageClass::kReadMostly:
      return "read_mostly";
    case PageClass::kCount:
      break;
  }
  return "unknown";
}

DsmEngine::DsmEngine(EventLoop* loop, RpcLayer* rpc, const CostModel* costs,
                     const Options& options)
    : loop_(loop), rpc_(rpc), costs_(costs), options_(options) {
  FV_CHECK(loop != nullptr);
  FV_CHECK(rpc != nullptr);
  FV_CHECK(costs != nullptr);
  FV_CHECK_GT(options.num_nodes, 0);
  FV_CHECK_LE(options.num_nodes, kMaxNodes);
  FV_CHECK_GE(options.home, 0);
  FV_CHECK_LT(options.home, options.num_nodes);
  FV_CHECK_GE(options.max_region_pages, 1);
  node_faults_.resize(static_cast<size_t>(options.num_nodes));
  if (options_.owner_hints) {
    hints_.resize(static_cast<size_t>(options_.num_nodes));
  }
  stats_.txn_retries.Init(options.num_nodes);
  stats_.txn_absorbed.Init(options.num_nodes);
  stats_.write_aborts.Init(options.num_nodes);
  proto_accounting_.messages = &stats_.protocol_messages;
  proto_accounting_.bytes = &stats_.protocol_bytes;
}

DsmEngine::Leaf& DsmEngine::EnsureLeaf(PageNum page) {
  FV_CHECK_LT(page, kMaxPages);
  const size_t li = page >> kLeafBits;
  if (li >= leaves_.size()) {
    leaves_.resize(li + 1);
  }
  if (leaves_[li] == nullptr) {
    leaves_[li] = std::make_unique<Leaf>();
  }
  return *leaves_[li];
}

DsmEngine::Leaf& DsmEngine::EnsurePage(PageNum page) {
  Leaf& leaf = EnsureLeaf(page);
  const uint32_t i = Index(page);
  if (!TestBit(leaf.known, i)) {
    // First touch anywhere: the origin backs the boot image and all fresh
    // anonymous memory, exactly like Popcorn's origin node.
    SetBit(leaf.known, i);
    ++known_pages_;
    leaf.owner[i] = static_cast<int16_t>(options_.home);
    leaf.sharers[i] = Bit(options_.home);
    SetBit(leaf.present[static_cast<size_t>(options_.home)], i);
    SetBit(leaf.writable[static_cast<size_t>(options_.home)], i);
  }
  return leaf;
}

void DsmEngine::SetResident(Leaf& leaf, uint32_t i, NodeId node, PageAccess acc) {
  const auto n = static_cast<size_t>(node);
  switch (acc) {
    case PageAccess::kNone:
      ClearBit(leaf.present[n], i);
      ClearBit(leaf.writable[n], i);
      break;
    case PageAccess::kRead:
      SetBit(leaf.present[n], i);
      ClearBit(leaf.writable[n], i);
      break;
    case PageAccess::kWrite:
      SetBit(leaf.present[n], i);
      SetBit(leaf.writable[n], i);
      // Journal: a write grant means the local copy diverges from the last
      // checkpoint image the moment the node uses it.
      SetBit(leaf.dirty[n], i);
      break;
  }
}

void DsmEngine::ResetResidency(Leaf& leaf, uint32_t i, NodeId keep) {
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (n != keep) {
      SetResident(leaf, i, n, PageAccess::kNone);
    }
  }
  SetResident(leaf, i, keep, PageAccess::kWrite);
}

void DsmEngine::SeedRange(PageNum start, uint64_t count, NodeId owner) {
  FV_CHECK_GE(owner, 0);
  FV_CHECK_LT(owner, options_.num_nodes);
  for (PageNum p = start; p < start + count; ++p) {
    Leaf& leaf = EnsureLeaf(p);
    const uint32_t i = Index(p);
    FV_CHECK(!TestBit(leaf.busy, i));
    if (!TestBit(leaf.known, i)) {
      SetBit(leaf.known, i);
      ++known_pages_;
    }
    leaf.owner[i] = static_cast<int16_t>(owner);
    leaf.sharers[i] = Bit(owner);
    // Clear any stale residency on other nodes (re-seeding in tests).
    ResetResidency(leaf, i, owner);
  }
}

void DsmEngine::SetPageClass(PageNum start, uint64_t count, PageClass cls) {
  FV_CHECK_GT(count, 0u);
  class_ranges_[start] = {start + count, cls};
}

PageClass DsmEngine::ClassOf(PageNum page) const { return ClassIn(class_ranges_, page); }

PageClass DsmEngine::ClassIn(const ClassRanges& ranges, PageNum page) {
  auto it = ranges.upper_bound(page);
  if (it == ranges.begin()) {
    return PageClass::kGuestPrivate;
  }
  --it;
  if (page < it->second.first) {
    return it->second.second;
  }
  return PageClass::kGuestPrivate;
}

PageAccess DsmEngine::ResidentAccess(NodeId node, PageNum page) const {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, options_.num_nodes);
  const Leaf* leaf = FindLeaf(page);
  return leaf == nullptr ? PageAccess::kNone : AccessOf(*leaf, Index(page), node);
}

NodeId DsmEngine::OwnerOf(PageNum page) const {
  const Leaf* leaf = FindLeaf(page);
  if (leaf == nullptr || !TestBit(leaf->known, Index(page))) {
    return kInvalidNode;
  }
  return leaf->owner[Index(page)];
}

std::vector<PageNum> DsmEngine::PagesOwnedBy(NodeId node) const {
  std::vector<PageNum> out;
  for (size_t li = 0; li < leaves_.size(); ++li) {
    const Leaf* leaf = leaves_[li].get();
    if (leaf == nullptr) {
      continue;
    }
    for (uint32_t w = 0; w < kLeafWords; ++w) {
      uint64_t bits = leaf->known[w];
      while (bits != 0) {
        const uint32_t i = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (leaf->owner[i] == node) {
          out.push_back((static_cast<PageNum>(li) << kLeafBits) | i);
        }
      }
    }
  }
  return out;
}

uint64_t DsmEngine::ReseedOwnedBy(NodeId from, NodeId to) {
  FV_CHECK_GE(to, 0);
  FV_CHECK_LT(to, options_.num_nodes);
  uint64_t moved = 0;
  for (auto& leaf_ptr : leaves_) {
    Leaf* leaf = leaf_ptr.get();
    if (leaf == nullptr) {
      continue;
    }
    for (uint32_t w = 0; w < kLeafWords; ++w) {
      uint64_t bits = leaf->known[w] & ~leaf->busy[w];
      while (bits != 0) {
        const uint32_t i = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (leaf->owner[i] != from) {
          continue;
        }
        leaf->owner[i] = static_cast<int16_t>(to);
        leaf->sharers[i] = Bit(to);
        leaf->hold_until[i] = 0;
        ResetResidency(*leaf, i, to);
        ++moved;
      }
    }
  }
  return moved;
}

void DsmEngine::ClearDirtyJournal() {
  for (auto& leaf_ptr : leaves_) {
    Leaf* leaf = leaf_ptr.get();
    if (leaf == nullptr) {
      continue;
    }
    for (int n = 0; n < options_.num_nodes; ++n) {
      for (uint32_t w = 0; w < kLeafWords; ++w) {
        leaf->dirty[n][w] = 0;
      }
    }
  }
}

uint64_t DsmEngine::DirtyPageCount(NodeId node) const {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, options_.num_nodes);
  uint64_t count = 0;
  for (const auto& leaf_ptr : leaves_) {
    const Leaf* leaf = leaf_ptr.get();
    if (leaf == nullptr) {
      continue;
    }
    for (uint32_t w = 0; w < kLeafWords; ++w) {
      count += static_cast<uint64_t>(std::popcount(leaf->dirty[static_cast<size_t>(node)][w]));
    }
  }
  return count;
}

bool DsmEngine::IsDirty(NodeId node, PageNum page) const {
  const Leaf* leaf = FindLeaf(page);
  return leaf != nullptr && TestBit(leaf->dirty[static_cast<size_t>(node)], Index(page));
}

DsmEngine::PartialLossReport DsmEngine::RecoverDeadOwner(NodeId dead, NodeId fallback) {
  FV_CHECK_GE(dead, 0);
  FV_CHECK_LT(dead, options_.num_nodes);
  FV_CHECK_NE(dead, options_.home);  // home death means full restore, not surgery
  FV_CHECK_GE(fallback, 0);
  FV_CHECK_LT(fallback, options_.num_nodes);
  FV_CHECK_NE(fallback, dead);
  PartialLossReport report;
  const auto d = static_cast<size_t>(dead);
  for (auto& leaf_ptr : leaves_) {
    Leaf* leaf = leaf_ptr.get();
    if (leaf == nullptr) {
      continue;
    }
    for (uint32_t w = 0; w < kLeafWords; ++w) {
      uint64_t bits = leaf->known[w] & ~leaf->busy[w];
      while (bits != 0) {
        const uint32_t i = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const bool was_owner = leaf->owner[i] == dead;
        const bool was_dirty = TestBit(leaf->dirty[d], i);
        // Strip the dead node everywhere first (residency, mask, journal).
        if ((leaf->sharers[i] & Bit(dead)) != 0 || TestBit(leaf->present[d], i)) {
          SetResident(*leaf, i, dead, PageAccess::kNone);
          leaf->sharers[i] &= ~Bit(dead);
          stats_.pages_reclaimed.Add(1);
        }
        ClearBit(leaf->dirty[d], i);
        if (!was_owner) {
          continue;
        }
        ++report.pages_owned;
        // A surviving read replica preserves the page's current content:
        // promote the lowest surviving sharer to owner, no restore needed.
        NodeId survivor = kInvalidNode;
        for (int n = 0; n < options_.num_nodes; ++n) {
          if ((leaf->sharers[i] & Bit(n)) != 0) {
            survivor = n;
            break;
          }
        }
        if (survivor != kInvalidNode) {
          leaf->owner[i] = static_cast<int16_t>(survivor);
          leaf->hold_until[i] = 0;
          ++report.promoted_sharers;
          stats_.pages_promoted.Add(1);
          continue;
        }
        // Only copy died. The checkpoint image is current unless the dead
        // node wrote the page after it was taken — the journal knows.
        leaf->owner[i] = static_cast<int16_t>(fallback);
        leaf->sharers[i] = Bit(fallback);
        leaf->hold_until[i] = 0;
        ResetResidency(*leaf, i, fallback);
        if (was_dirty) {
          ++report.lost_dirty;
          stats_.pages_lost_dirty.Add(1);
        } else {
          ++report.rehomed_clean;
          stats_.pages_rehomed_clean.Add(1);
        }
      }
    }
  }
  return report;
}

uint64_t DsmEngine::FaultsByNode(NodeId node) const {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, options_.num_nodes);
  return node_faults_[static_cast<size_t>(node)].value();
}

uint64_t DsmEngine::ResidentPageCount(NodeId node) const {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, options_.num_nodes);
  uint64_t count = 0;
  for (const auto& leaf_ptr : leaves_) {
    const Leaf* leaf = leaf_ptr.get();
    if (leaf == nullptr) {
      continue;
    }
    for (uint32_t w = 0; w < kLeafWords; ++w) {
      count += static_cast<uint64_t>(std::popcount(leaf->present[static_cast<size_t>(node)][w]));
    }
  }
  return count;
}

void DsmEngine::MigrateOwnedPages(NodeId from, NodeId to,
                                  std::function<void(uint64_t moved)> done) {
  FV_CHECK_GE(to, 0);
  FV_CHECK_LT(to, options_.num_nodes);
  FV_CHECK_NE(from, to);
  FV_CHECK(done != nullptr);
  // Snapshot the candidate set now; pages that become busy before their
  // batch ships stay behind (demand paging will move them later).
  auto candidates = std::make_shared<std::vector<PageNum>>(PagesOwnedBy(from));
  auto moved = std::make_shared<uint64_t>(0);
  constexpr size_t kBatchPages = 256;  // 1 MiB wire batches

  auto ship_batch = std::make_shared<std::function<void(size_t)>>();
  // The stored lambda refers to itself only weakly (continuation callbacks
  // hold the strong references) so the self-referential std::function does
  // not leak through a shared_ptr cycle.
  std::weak_ptr<std::function<void(size_t)>> weak_ship = ship_batch;
  *ship_batch = [this, from, to, candidates, moved, weak_ship,
                 done = std::move(done)](size_t start) mutable {
    auto self = weak_ship.lock();
    if (start >= candidates->size()) {
      done(*moved);
      return;
    }
    const size_t end = std::min(start + kBatchPages, candidates->size());
    // Claim eligible pages for this batch: still owned by `from`, idle.
    auto batch = std::make_shared<std::vector<PageNum>>();
    for (size_t i = start; i < end; ++i) {
      const PageNum page = (*candidates)[i];
      Leaf* leaf = FindLeaf(page);
      const uint32_t pi = Index(page);
      if (leaf == nullptr || !TestBit(leaf->known, pi) || TestBit(leaf->busy, pi) ||
          leaf->owner[pi] != from) {
        continue;
      }
      // Mark busy so racing faults queue behind the migration.
      SetBit(leaf->busy, pi);
      batch->push_back(page);
    }
    if (batch->empty()) {
      loop_->ScheduleAfter(0, [self, end]() { (*self)(end); });
      return;
    }
    const uint64_t bytes = 4096 * batch->size() + 256;
    // If the fabric abandons the batch (dead/partitioned target), the pages
    // stay behind for demand paging: release their busy bits, wake waiters,
    // and keep walking the candidate list.
    auto release_batch = [this, batch, self, end]() {
      for (const PageNum page : *batch) {
        Leaf& leaf = EnsurePage(page);
        const uint32_t pi = Index(page);
        ClearBit(leaf.busy, pi);
        auto wit = waiters_.find(page);
        if (wit != waiters_.end() && !wit->second.empty()) {
          Transaction next = std::move(wit->second.front());
          wit->second.pop_front();
          if (wit->second.empty()) {
            waiters_.erase(wit);
          }
          SetBit(leaf.busy, pi);
          loop_->ScheduleAfter(0, [this, page, next = std::move(next)]() mutable {
            ExecuteTransaction(page, std::move(next));
          });
        }
      }
      (*self)(end);
    };
    // Slice-migration batches are background traffic: under the QoS
    // scheduler they yield the link to latency-critical protocol messages.
    SendProto(from, to, MsgKind::kDsmPageData, bytes,
              [this, to, batch, moved, self, end]() {
                for (const PageNum page : *batch) {
                  Leaf& leaf = EnsurePage(page);
                  const uint32_t pi = Index(page);
                  leaf.owner[pi] = static_cast<int16_t>(to);
                  leaf.sharers[pi] = Bit(to);
                  leaf.hold_until[pi] = 0;
                  ResetResidency(leaf, pi, to);
                  ClearBit(leaf.busy, pi);
                  // Wake any fault that queued while the batch was in flight.
                  auto wit = waiters_.find(page);
                  if (wit != waiters_.end() && !wit->second.empty()) {
                    Transaction next = std::move(wit->second.front());
                    wit->second.pop_front();
                    if (wit->second.empty()) {
                      waiters_.erase(wit);
                    }
                    SetBit(leaf.busy, pi);
                    loop_->ScheduleAfter(0, [this, page, next = std::move(next)]() mutable {
                      ExecuteTransaction(page, std::move(next));
                    });
                  }
                }
                *moved += batch->size();
                (*self)(end);
              },
              std::move(release_batch), QosClass::kBulk);
  };
  (*ship_batch)(0);
}

bool DsmEngine::WouldHit(NodeId node, PageNum page, bool is_write) const {
  const Leaf* leaf = FindLeaf(page);
  if (leaf == nullptr) {
    return false;
  }
  const auto n = static_cast<size_t>(node);
  const uint32_t i = Index(page);
  if (is_write) {
    return TestBit(leaf->writable[n], i);
  }
  return TestBit(leaf->present[n], i);
}

TimeNs DsmEngine::HandlerCost() const {
  TimeNs cost = costs_->dsm_handler;
  if (options_.userspace_dsm) {
    cost += costs_->dsm_userspace_extra;
  }
  return cost;
}

void DsmEngine::SendProto(NodeId src, NodeId dst, MsgKind kind, uint64_t bytes,
                          EventLoop::Callback&& cb, EventLoop::Callback&& on_fail, QosClass qos,
                          TimeNs receiver_delay) {
  // The receiver-side handler cost rides on the delivery event as a relay:
  // no nested callback, no allocation per protocol hop. Retransmissions (with
  // a fault plan attached) count once here and per-attempt in FabricStats.
  // A non-negative receiver_delay overrides the handler cost — the one-sided
  // read path passes 0 because no remote CPU runs.
  RpcLayer::CallOpts opts;
  opts.qos = qos;
  opts.receiver_delay = receiver_delay >= 0 ? receiver_delay : HandlerCost();
  opts.account = &proto_accounting_;
  opts.on_fail = std::move(on_fail);
  rpc_->Call(src, dst, kind, bytes, std::move(cb), std::move(opts));
}

bool DsmEngine::Access(NodeId node, PageNum page, bool is_write, std::function<void()> done) {
  FV_CHECK_GE(node, 0);
  FV_CHECK_LT(node, options_.num_nodes);
  // Fast path: two array indexes and a bit test.
  Leaf& leaf = EnsurePage(page);
  const uint32_t i = Index(page);
  const auto n = static_cast<size_t>(node);
  if (is_write) {
    if (TestBit(leaf.writable[n], i)) {
      // Journal the store (a node can keep writing long after the grant that
      // first set its dirty bit was cleared by a checkpoint). Pure
      // bookkeeping: no message, no event, no timing change.
      SetBit(leaf.dirty[n], i);
      return true;
    }
  } else if (TestBit(leaf.present[n], i)) {
    return true;
  }

  const PageClass cls = ClassOf(page);
  if (is_write) {
    stats_.write_faults.Add(1);
  } else {
    stats_.read_faults.Add(1);
  }
  stats_.faults_by_class[static_cast<size_t>(cls)].Add(1);
  node_faults_[n].Add(1);
  if (options_.read_mostly_replication && cls == PageClass::kGuestPrivate) {
    UpdateReadMostlyDetector(leaf, is_write);
  }

  Transaction txn;
  txn.requester = node;
  txn.is_write = is_write;
  txn.start_time = loop_->now();
  txn.done = std::move(done);
  loop_->Trace(TraceCategory::kDsm, is_write ? "write_fault" : "read_fault", "node=", node,
               " page=", page, " class=", PageClassName(cls));

  // Requester side: VM exit, fault decode, request dispatch.
  const TimeNs local = costs_->ept_fault_vmexit + HandlerCost();
  const MsgKind kind = is_write ? MsgKind::kDsmWriteReq : MsgKind::kDsmReadReq;
  loop_->ScheduleAfter(local, [this, page, kind, txn = std::move(txn)]() mutable {
    DispatchFaultRequest(page, kind, std::move(txn));
  });
  return false;
}

NodeId DsmEngine::HintFor(NodeId node, PageNum page) const {
  if (hints_.empty()) {
    return kInvalidNode;
  }
  const auto& per_node = hints_[static_cast<size_t>(node)];
  const size_t li = page >> kLeafBits;
  if (li >= per_node.size() || per_node[li] == nullptr) {
    return kInvalidNode;
  }
  const int16_t pred = per_node[li]->pred[Index(page)];
  return pred < 0 ? kInvalidNode : static_cast<NodeId>(pred);
}

void DsmEngine::SetHint(NodeId node, PageNum page, NodeId owner) {
  if (!options_.owner_hints) {
    return;
  }
  auto& per_node = hints_[static_cast<size_t>(node)];
  const size_t li = page >> kLeafBits;
  if (li >= per_node.size()) {
    per_node.resize(li + 1);
  }
  if (per_node[li] == nullptr) {
    per_node[li] = std::make_unique<HintLeaf>();
  }
  per_node[li]->pred[Index(page)] = static_cast<int16_t>(owner);
}

DsmEngine::DeltaLeaf* DsmEngine::DeltaFor(PageNum page) const {
  const size_t li = page >> kLeafBits;
  if (li >= delta_.size()) {
    return nullptr;
  }
  return delta_[li].get();
}

DsmEngine::DeltaLeaf& DsmEngine::EnsureDelta(PageNum page) {
  const size_t li = page >> kLeafBits;
  if (li >= delta_.size()) {
    delta_.resize(li + 1);
  }
  if (delta_[li] == nullptr) {
    delta_[li] = std::make_unique<DeltaLeaf>();
  }
  return *delta_[li];
}

void DsmEngine::BumpPageVersion(PageNum page, NodeId writer) {
  if (!options_.compress) {
    return;
  }
  DeltaLeaf& d = EnsureDelta(page);
  const uint32_t i = Index(page);
  ++d.version[i];
  // The writer holds the freshest content by definition; record it so a later
  // downgrade-and-refetch on the writer itself can go out as a delta.
  d.last[static_cast<size_t>(writer)][i] = d.version[i];
}

uint64_t DsmEngine::TransferPayloadBytes(PageNum page, NodeId to, uint64_t payload) {
  if (!options_.compress) {
    return payload;
  }
  DeltaLeaf& d = EnsureDelta(page);
  const uint32_t i = Index(page);
  const uint16_t version = d.version[i];
  uint16_t& last = d.last[static_cast<size_t>(to)][i];
  uint64_t wire;
  // Delta-diff an invalidate-refetch cycle: the receiver held version `last`
  // of this page, so only the writes since then go on the wire. Beyond a few
  // versions behind (or on wraparound) a full compressed page is cheaper.
  const uint16_t behind = static_cast<uint16_t>(version - last);
  if (last != 0 && behind <= 4) {
    wire = DeltaPayloadBytes(payload, behind);
    stats_.delta_transfers.Add(1);
  } else {
    wire = CompressedPayloadBytes(options_.compress_seed, page, payload);
    if (wire < payload) {
      stats_.compressed_transfers.Add(1);
    }
  }
  last = version;
  stats_.transfer_bytes_saved.Add(payload - wire);
  return wire;
}

bool DsmEngine::IsReadMostly(const Leaf& leaf, PageNum page) const {
  if (!options_.read_mostly_replication) {
    return false;
  }
  return ClassOf(page) == PageClass::kReadMostly ||
         (leaf.rm_promoted && ClassOf(page) == PageClass::kGuestPrivate);
}

NodeId DsmEngine::PickReadReplica(NodeId requester, PageNum page) const {
  const Leaf* leaf = FindLeaf(page);
  const uint32_t i = Index(page);
  if (leaf == nullptr || !TestBit(leaf->known, i) || !IsReadMostly(*leaf, page)) {
    return kInvalidNode;
  }
  uint32_t mask = leaf->sharers[i] & ~Bit(requester);
  while (mask != 0) {
    const NodeId n = static_cast<NodeId>(std::countr_zero(mask));
    mask &= mask - 1;
    if (rpc_->NodeUp(n)) {
      return n;
    }
  }
  return kInvalidNode;
}

void DsmEngine::UpdateReadMostlyDetector(Leaf& leaf, bool is_write) {
  if (is_write) {
    ++leaf.rm_writes;
    // Write pressure demotes the leaf and restarts the history: a phase
    // change (initialization -> read-mostly -> update burst) re-learns.
    if (leaf.rm_promoted && leaf.rm_writes * 4 >= leaf.rm_reads) {
      leaf.rm_promoted = false;
      leaf.rm_reads = 0;
      leaf.rm_writes = 0;
    }
    return;
  }
  ++leaf.rm_reads;
  if (!leaf.rm_promoted && leaf.rm_reads >= 64 && leaf.rm_writes * 8 <= leaf.rm_reads) {
    leaf.rm_promoted = true;
    stats_.read_mostly_promotions.Add(1);
  }
}

TimeNs DsmEngine::OwnershipHold(Leaf& leaf, uint32_t i, bool ownership_moved) {
  const TimeNs base = costs_->dsm_ownership_hold;
  if (!options_.adaptive_granularity) {
    return base;
  }
  uint8_t boost = leaf.hold_boost[i];
  if (ownership_moved && leaf.hold_until[i] != 0) {
    const TimeNs now = loop_->now();
    const TimeNs since_expiry = now > leaf.hold_until[i] ? now - leaf.hold_until[i] : 0;
    if (since_expiry < base) {
      // Ping-pong signature: a competitor was already queued and took the
      // page the moment the previous hold expired. Double the hold so each
      // owner amortizes the transfer over more local work.
      if ((base << (boost + 1)) <= costs_->dsm_ownership_hold_max) {
        ++boost;
        stats_.hold_escalations.Add(1);
      }
    } else if (since_expiry > 4 * base && boost > 0) {
      // Contention cleared: decay back toward the paper's fixed hold.
      --boost;
    }
  }
  leaf.hold_boost[i] = boost;
  return base << boost;
}

int DsmEngine::StreamRegionPages(Leaf& leaf, uint32_t i, NodeId node) {
  const auto n = static_cast<size_t>(node);
  uint8_t run = 1;
  if (leaf.stream_next[n] == i && leaf.stream_run[n] < 15) {
    run = static_cast<uint8_t>(leaf.stream_run[n] + 1);
  }
  leaf.stream_run[n] = run;
  // i + 1 == kLeafPages falls off the leaf: kStreamIdle-like, never matches.
  leaf.stream_next[n] = static_cast<uint16_t>(i + 1);
  if (run < 2) {
    return 1;
  }
  const int width = 1 << std::min<int>(run, 30);
  return std::min(width, options_.max_region_pages);
}

void DsmEngine::DispatchFaultRequest(PageNum page, MsgKind kind, Transaction txn) {
  // --- Fast-path routing (inert with the options off) ---
  if (options_.read_mostly_replication && kind == MsgKind::kDsmReadReq) {
    const NodeId replica = PickReadReplica(txn.requester, page);
    if (replica != kInvalidNode) {
      txn.via = replica;
      txn.via_replica = true;
      SendViaRequest(page, kind, replica, std::move(txn));
      return;
    }
  }
  if (options_.owner_hints && ClassOf(page) != PageClass::kPageTable &&
      !(kind == MsgKind::kDsmWriteReq && options_.read_mostly_replication &&
        IsReadMostly(EnsurePage(page), page))) {
    const NodeId hint = HintFor(txn.requester, page);
    if (hint != kInvalidNode && hint != txn.requester && hint != options_.home &&
        rpc_->NodeUp(hint)) {
      txn.via = hint;
      txn.via_replica = false;
      SendViaRequest(page, kind, hint, std::move(txn));
      return;
    }
  }
  DispatchHomeRequest(page, kind, std::move(txn));
}

void DsmEngine::SendViaRequest(PageNum page, MsgKind kind, NodeId target, Transaction txn) {
  auto txp = std::make_shared<Transaction>(std::move(txn));
  // One-sided read fast path: the requester knows exactly where the page
  // lives (hint or replica), so the wire-level read posts straight against
  // the target's registered memory — no remote CPU handler runs on the
  // request leg (receiver_delay 0). The verb setup/posting cost is charged
  // at the requester before the read hits the wire. A stale hint still takes
  // the two-sided fallback below, as a real one-sided read would after
  // validation fails.
  TimeNs receiver_delay = -1;
  TimeNs setup = 0;
  if (RdmaEligible(kind)) {
    receiver_delay = 0;
    setup = rpc_->fabric()->link_params(txp->requester, target).one_sided_setup;
    stats_.rdma_reads.Add(1);
  }
  auto issue = [this, page, kind, target, txp, receiver_delay]() mutable {
    SendProto(
        txp->requester, target, kind, kMsgHeaderBytes,
        [this, page, txp]() mutable { StartTransaction(page, std::move(*txp)); },
        [this, page, kind, txp]() mutable {
              // The predicted owner / replica became unreachable mid-flight:
              // drop the prediction and fall back onto the home-directed
              // path, which owns the full retry state machine. No busy bit
              // is held yet, so the fallback is a fresh dispatch.
              Transaction t = std::move(*txp);
              const bool was_hint = !t.via_replica;
              t.via = kInvalidNode;
              t.via_replica = false;
              if (was_hint) {
                SetHint(t.requester, page, kInvalidNode);
                stats_.hint_stale.Add(1);
              }
              if (!rpc_->NodeUp(t.requester)) {
                stats_.txn_absorbed.Add(t.requester);
                loop_->Trace(TraceCategory::kFault, "dsm_req_absorbed", "node=", t.requester,
                             " page=", page);
                if (t.done) {
                  t.done();
                }
                return;
              }
          stats_.txn_retries.Add(t.requester);
          loop_->Trace(TraceCategory::kFault, "dsm_hint_redirect", "node=", t.requester,
                       " page=", page);
          DispatchHomeRequest(page, kind, std::move(t));
        },
        QosClass::kLatency, receiver_delay);
  };
  if (setup > 0) {
    loop_->ScheduleAfter(setup, std::move(issue));
  } else {
    issue();
  }
}

void DsmEngine::DispatchHomeRequest(PageNum page, MsgKind kind, Transaction txn) {
  // The rpc layer owns the requester-side retry state machine: if the fabric
  // gives up on a request that never reached the directory (no busy bit is
  // held), the call is re-issued after backoff while the requester is alive
  // and abandoned once it is not.
  const NodeId node = txn.requester;
  if (rpc_->fault_plan() == nullptr) {
    // No faults possible: keep the request allocation-free.
    SendProto(node, options_.home, kind, kMsgHeaderBytes,
              [this, page, txn = std::move(txn)]() mutable {
                StartTransaction(page, std::move(txn));
              });
    return;
  }
  RpcLayer::CallOpts opts;
  opts.receiver_delay = HandlerCost();
  opts.account = &proto_accounting_;
  RpcLayer::RetrySpec spec;
  spec.token = page;
  spec.token_key = "page";
  spec.retry_counter = &stats_.txn_retries;
  spec.abandon_counter = &stats_.txn_absorbed;
  spec.trace_retry = "dsm_req_retry";
  spec.trace_abandon = "dsm_req_absorbed";
  auto txp = std::make_shared<Transaction>(std::move(txn));
  rpc_->CallWithRetry(
      node, options_.home, kind, kMsgHeaderBytes,
      [this, page, txp]() mutable { StartTransaction(page, std::move(*txp)); },
      [txp]() {
        Transaction t = std::move(*txp);
        if (t.done) {
          t.done();
        }
      },
      spec, std::move(opts));
}

TimeNs DsmEngine::RetryBackoff(int attempts) const {
  const TimeNs base = Micros(500);
  const TimeNs cap = Millis(50);
  const int shift = std::min(attempts, 7);
  return std::min(base << shift, cap);
}

void DsmEngine::HandleTxnSendFailure(PageNum page, Transaction txn) {
  if (!rpc_->NodeUp(txn.requester)) {
    AbsorbTransaction(page, std::move(txn));
    return;
  }
  ScheduleTxnRetry(page, std::move(txn));
}

void DsmEngine::ScheduleTxnRetry(PageNum page, Transaction txn) {
  ++txn.attempts;
  const TimeNs backoff = RetryBackoff(txn.attempts);
  loop_->ScheduleAfter(backoff, [this, page, txn = std::move(txn)]() mutable {
    RetryTransaction(page, std::move(txn));
  });
}

void DsmEngine::RetryTransaction(PageNum page, Transaction txn) {
  if (!rpc_->NodeUp(txn.requester)) {
    AbsorbTransaction(page, std::move(txn));
    return;
  }
  stats_.txn_retries.Add(txn.requester);
  loop_->Trace(TraceCategory::kFault, "dsm_txn_retry", "node=", txn.requester, " page=", page,
               " attempt=", txn.attempts);
  ReclaimDeadPeers(page);
  RepairPage(page);
  // Any fast-path routing from the original dispatch is void after a failed
  // round: the retry re-executes against the repaired directory state.
  txn.via = kInvalidNode;
  txn.via_replica = false;
  ExecuteTransaction(page, std::move(txn));
}

void DsmEngine::AbsorbTransaction(PageNum page, Transaction txn) {
  stats_.txn_absorbed.Add(txn.requester);
  loop_->Trace(TraceCategory::kFault, "dsm_txn_absorbed", "node=", txn.requester, " page=",
               page);
  ReclaimDeadPeers(page);
  RepairPage(page);
  if (txn.done) {
    txn.done();
  }
  FinishTransaction(page);
}

void DsmEngine::ReclaimDeadPeers(PageNum page) {
  Leaf& leaf = EnsurePage(page);
  const uint32_t i = Index(page);
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (n == options_.home) {
      continue;  // the directory host is never reclaimed from below
    }
    if ((leaf.sharers[i] & Bit(n)) != 0 && !rpc_->NodeUp(n)) {
      SetResident(leaf, i, n, PageAccess::kNone);
      leaf.sharers[i] &= ~Bit(n);
      stats_.pages_reclaimed.Add(1);
      loop_->Trace(TraceCategory::kFault, "dsm_reclaim", "dead=", n, " page=", page);
    }
  }
}

void DsmEngine::RepairPage(PageNum page) {
  Leaf& leaf = EnsurePage(page);
  const uint32_t i = Index(page);
  // Drop mask bits for nodes whose residency an aborted attempt already
  // revoked (their invalidate landed but the round never committed).
  uint32_t mask = leaf.sharers[i];
  for (int n = 0; n < options_.num_nodes; ++n) {
    if ((mask & Bit(n)) != 0 && AccessOf(leaf, i, n) == PageAccess::kNone) {
      mask &= ~Bit(n);
    }
  }
  leaf.sharers[i] = mask;
  const NodeId owner = leaf.owner[i];
  if (owner == kInvalidNode || (mask & Bit(owner)) == 0) {
    // The owning copy is gone — dead owner or an abandoned transfer. The
    // directory re-homes the page; content comes from the checkpoint image
    // on the recovery path.
    leaf.owner[i] = static_cast<int16_t>(options_.home);
    leaf.sharers[i] = Bit(options_.home);
    leaf.hold_until[i] = 0;
    ResetResidency(leaf, i, options_.home);
  }
}

void DsmEngine::StartTransaction(PageNum page, Transaction txn) {
  Leaf& leaf = EnsurePage(page);
  const uint32_t i = Index(page);
  if (TestBit(leaf.busy, i)) {
    waiters_[page].push_back(std::move(txn));
    return;
  }
  SetBit(leaf.busy, i);
  ExecuteTransaction(page, std::move(txn));
}

void DsmEngine::ExecuteTransaction(PageNum page, Transaction txn) {
  // A transaction for a crashed requester is absorbed instead of executed:
  // granting residency to a dead node would strand the page there, and every
  // message toward the requester would burn a full retry budget first.
  if (!rpc_->NodeUp(txn.requester)) {
    AbsorbTransaction(page, std::move(txn));
    return;
  }
  // The access may have been satisfied while this transaction queued (another
  // vCPU on the same node faulted first).
  if (WouldHit(txn.requester, page, txn.is_write)) {
    CompleteFault(page, txn);
    FinishTransaction(page);
    return;
  }
  // Anti-ping-pong hold: let a freshly granted owner make progress before a
  // competitor takes the page away. The directory entry stays busy.
  Leaf& leaf = EnsurePage(page);
  const uint32_t i = Index(page);
  if (txn.requester != leaf.owner[i] && loop_->now() < leaf.hold_until[i]) {
    loop_->ScheduleAt(leaf.hold_until[i], [this, page, txn = std::move(txn)]() mutable {
      ExecuteTransaction(page, std::move(txn));
    });
    return;
  }
  if (!txn.is_write) {
    RunReadProtocol(page, std::move(txn));
    return;
  }
  if (options_.contextual_dsm && ClassOf(page) == PageClass::kPageTable) {
    RunPageTablePiggyback(page, std::move(txn));
    return;
  }
  RunWriteProtocol(page, std::move(txn));
}

void DsmEngine::FinishTransaction(PageNum page) {
  Leaf& leaf = EnsurePage(page);
  const uint32_t i = Index(page);
  FV_CHECK(TestBit(leaf.busy, i));
  auto wit = waiters_.find(page);
  if (wit == waiters_.end() || wit->second.empty()) {
    if (wit != waiters_.end()) {
      waiters_.erase(wit);
    }
    ClearBit(leaf.busy, i);
    return;
  }
  Transaction next = std::move(wit->second.front());
  wit->second.pop_front();
  if (wit->second.empty()) {
    waiters_.erase(wit);
  }
  // Dispatch asynchronously to bound stack depth under heavy contention.
  loop_->ScheduleAfter(0, [this, page, next = std::move(next)]() mutable {
    ExecuteTransaction(page, std::move(next));
  });
}

void DsmEngine::CompleteFault(PageNum page, const Transaction& txn) {
  loop_->Trace(TraceCategory::kDsm, "fault_resolved", "node=", txn.requester, " page=", page,
               " latency_us=", ToMicros(loop_->now() - txn.start_time));
  stats_.fault_latency_ns.Record(static_cast<double>(loop_->now() - txn.start_time));
  if (txn.done) {
    txn.done();
  }
}

void DsmEngine::RunReadProtocol(PageNum page, Transaction txn) {
  Leaf& leaf = EnsurePage(page);
  const uint32_t pi = Index(page);
  const NodeId requester = txn.requester;
  const NodeId owner = leaf.owner[pi];
  FV_CHECK_NE(owner, kInvalidNode);
  FV_CHECK_NE(owner, requester);  // owner always holds >= read; would have hit

  // Resolve fast-path routing: the request may already sit at the predicted
  // owner or at a chosen read replica instead of at the home.
  NodeId server = owner;
  bool direct = false;       // the request is already at `server`; no forward
  bool notify_home = false;  // hinted serve: the home learns asynchronously
  if (txn.via != kInvalidNode) {
    const NodeId via = txn.via;
    const bool via_replica = txn.via_replica;
    txn.via = kInvalidNode;
    txn.via_replica = false;
    if (via_replica && via != requester && AccessOf(leaf, pi, via) != PageAccess::kNone) {
      // Read-mostly replication: any live replica serves; the directory
      // never hears about this fault.
      server = via;
      direct = true;
      stats_.replica_reads.Add(1);
    } else if (!via_replica && via == owner) {
      // Correct owner prediction: serve right here; the home is told off
      // the critical path.
      direct = true;
      notify_home = true;
      stats_.hint_hits.Add(1);
    } else {
      // Stale prediction (ownership moved, or the replica lost its copy
      // while the request was in flight): forward to the home — exactly
      // Popcorn's stale-hint forwarding path — and rejoin the normal
      // protocol there.
      if (!via_replica) {
        stats_.hint_stale.Add(1);
      }
      auto txp = std::make_shared<Transaction>(std::move(txn));
      SendProto(via, options_.home, MsgKind::kControl, kMsgHeaderBytes,
                [this, page, txp]() mutable { RunReadProtocol(page, std::move(*txp)); },
                [this, page, txp]() { HandleTxnSendFailure(page, std::move(*txp)); });
      return;
    }
  }

  stats_.page_transfers.Add(1);

  // Sequential read prefetch: ship idle same-owner follower pages on the
  // same reply. Selected now; granted together with the main page. The
  // adaptive stream detector can widen the region past the static depth —
  // only when the owner itself serves (a replica holds just the pages it
  // happens to share, so replica serves stay single-page).
  int prefetch_limit = options_.read_prefetch_pages;
  if (options_.adaptive_granularity && server == owner) {
    prefetch_limit = std::max(prefetch_limit, StreamRegionPages(leaf, pi, requester) - 1);
  }
  std::vector<PageNum> prefetch;
  if (server == owner) {
    for (int k = 1; k <= prefetch_limit; ++k) {
      const PageNum next = page + static_cast<PageNum>(k);
      const Leaf* nl = FindLeaf(next);
      const uint32_t ni = Index(next);
      if (nl == nullptr || !TestBit(nl->known, ni) || TestBit(nl->busy, ni) ||
          nl->owner[ni] != owner || (nl->sharers[ni] & Bit(requester)) != 0 ||
          ClassOf(next) != PageClass::kGuestPrivate) {
        break;  // only a contiguous same-owner run is worth piggybacking
      }
      prefetch.push_back(next);
    }
  }
  if (prefetch.size() > static_cast<size_t>(options_.read_prefetch_pages)) {
    stats_.region_transfers.Add(1);
  }

  // Wire size of the grant: header + (possibly compressed or delta-diffed)
  // payload per page. With --dsm-compress off this is exactly the baseline
  // header + 4 KiB per page.
  uint64_t reply_bytes = kMsgHeaderBytes + TransferPayloadBytes(page, requester, kPageBytes);
  for (const PageNum p : prefetch) {
    reply_bytes += TransferPayloadBytes(p, requester, kPageBytes);
  }
  auto txp = std::make_shared<Transaction>(std::move(txn));
  // Fires when the fabric abandons a hop of this round (dead or partitioned
  // peer after the full retransmit budget). Exactly one of {hop failure,
  // final grant} consumes the transaction.
  auto on_fail = [this, page, txp]() { HandleTxnSendFailure(page, std::move(*txp)); };
  auto deliver = [this, page, requester, owner, server, notify_home,
                  prefetch = std::move(prefetch), reply_bytes, txp, on_fail]() mutable {
    // The serving node downgrades any writable copy it holds (single-writer
    // protocol) and ships the pages.
    Leaf& l = EnsurePage(page);
    if (AccessOf(l, Index(page), server) == PageAccess::kWrite) {
      SetResident(l, Index(page), server, PageAccess::kRead);
    }
    for (const PageNum p : prefetch) {
      Leaf& pl = EnsurePage(p);
      if (AccessOf(pl, Index(p), server) == PageAccess::kWrite) {
        SetResident(pl, Index(p), server, PageAccess::kRead);
      }
    }
    if (notify_home) {
      // The hinted serve bypassed the directory; the home hears about the
      // new sharer asynchronously. The simulator's directory state is
      // centralized, so the notify is pure (accounted) traffic and losing
      // it under a fault plan is harmless — the real protocol makes it
      // idempotent for the same reason a duplicate grant is.
      RpcLayer::CallOpts nopts;
      nopts.receiver_delay = HandlerCost();
      nopts.account = &proto_accounting_;
      rpc_->Notify(server, options_.home, MsgKind::kDsmOwnerNotify, kMsgHeaderBytes,
                   std::move(nopts));
    }
    SendProto(server, requester, MsgKind::kDsmPageData, reply_bytes,
              [this, page, requester, owner, prefetch = std::move(prefetch), txp]() mutable {
                loop_->ScheduleAfter(
                    costs_->dsm_map_page,
                    [this, page, requester, owner, prefetch = std::move(prefetch),
                     txp]() mutable {
                      Leaf& dir = EnsurePage(page);
                      dir.sharers[Index(page)] |= Bit(requester);
                      SetResident(dir, Index(page), requester, PageAccess::kRead);
                      // Hint refresh: every grant piggybacks the current
                      // owner (no-op unless owner_hints).
                      SetHint(requester, page, dir.owner[Index(page)]);
                      for (const PageNum p : prefetch) {
                        // Skip any page a racing transaction touched while
                        // the reply was in flight (stale speculative data).
                        Leaf& pdir = EnsurePage(p);
                        const uint32_t pj = Index(p);
                        if (TestBit(pdir.busy, pj) || pdir.owner[pj] != owner ||
                            AccessOf(pdir, pj, owner) != PageAccess::kRead) {
                          continue;
                        }
                        pdir.sharers[pj] |= Bit(requester);
                        SetResident(pdir, pj, requester, PageAccess::kRead);
                        SetHint(requester, p, owner);
                        stats_.prefetched_pages.Add(1);
                      }
                      CompleteFault(page, *txp);
                      FinishTransaction(page);
                    });
              },
              on_fail);
  };

  if (direct || server == options_.home) {
    deliver();
  } else {
    // Home forwards the request to the current owner.
    SendProto(options_.home, server, MsgKind::kControl, kMsgHeaderBytes, std::move(deliver),
              std::move(on_fail));
  }
}

void DsmEngine::RunWriteProtocol(PageNum page, Transaction txn) {
  Leaf& leaf = EnsurePage(page);
  const uint32_t pi = Index(page);
  const NodeId requester = txn.requester;
  const NodeId owner = leaf.owner[pi];
  FV_CHECK_NE(owner, kInvalidNode);

  const bool upgrade = AccessOf(leaf, pi, requester) == PageAccess::kRead;

  if (txn.via != kInvalidNode) {
    const NodeId via = txn.via;
    txn.via = kInvalidNode;
    txn.via_replica = false;
    const bool sole_holder =
        via == owner && (leaf.sharers[pi] & ~(Bit(via) | Bit(requester))) == 0;
    if (!sole_holder) {
      // Wrong prediction, or other sharers exist: only the home can run the
      // invalidation round. Forward the request — the stale-hint path.
      stats_.hint_stale.Add(1);
      auto txp = std::make_shared<Transaction>(std::move(txn));
      SendProto(via, options_.home, MsgKind::kControl, kMsgHeaderBytes,
                [this, page, txp]() mutable { RunWriteProtocol(page, std::move(*txp)); },
                [this, page, txp]() { HandleTxnSendFailure(page, std::move(*txp)); });
      return;
    }
    // The predicted owner holds the only other copy: it invalidates itself,
    // ships page + ownership straight to the requester, and notifies the
    // home asynchronously — the whole directory round disappears.
    stats_.hint_hits.Add(1);
    SetResident(leaf, pi, via, PageAccess::kNone);
    RpcLayer::CallOpts nopts;
    nopts.receiver_delay = HandlerCost();
    nopts.account = &proto_accounting_;
    rpc_->Notify(via, options_.home, MsgKind::kDsmOwnerNotify, kMsgHeaderBytes,
                 std::move(nopts));
    stats_.page_transfers.Add(upgrade ? 0 : 1);
    const uint64_t ship_bytes =
        upgrade ? kMsgHeaderBytes
                : kMsgHeaderBytes + TransferPayloadBytes(page, requester, kPageBytes);
    auto txp = std::make_shared<Transaction>(std::move(txn));
    SendProto(via, requester, upgrade ? MsgKind::kDsmAck : MsgKind::kDsmPageData, ship_bytes,
              [this, page, requester, txp]() mutable {
                loop_->ScheduleAfter(
                    costs_->dsm_map_page, [this, page, requester, txp]() mutable {
                      Leaf& dir = EnsurePage(page);
                      const uint32_t di = Index(page);
                      const TimeNs hold = OwnershipHold(dir, di, dir.owner[di] != requester);
                      dir.owner[di] = static_cast<int16_t>(requester);
                      dir.sharers[di] = Bit(requester);
                      dir.hold_until[di] = loop_->now() + hold;
                      SetResident(dir, di, requester, PageAccess::kWrite);
                      BumpPageVersion(page, requester);
                      if (options_.ept_dirty_tracking) {
                        SendProto(requester, options_.home, MsgKind::kDsmAck, kMsgHeaderBytes,
                                  []() {});
                      }
                      CompleteFault(page, *txp);
                      FinishTransaction(page);
                    });
              },
              [this, page, txp]() {
                // The direct transfer never arrived: void the round. The
                // retry path reconciles the self-invalidated old owner
                // (RepairPage re-homes a page whose owning copy is gone).
                stats_.write_aborts.Add(txp->requester);
                loop_->Trace(TraceCategory::kFault, "dsm_write_abort", "node=",
                             txp->requester, " page=", page);
                HandleTxnSendFailure(page, std::move(*txp));
              });
    return;
  }

  // Read-mostly epoch bump: replica reads bypass the directory, so the
  // sharer mask under-counts the copies in the field. A write invalidates
  // every live node, not just the recorded sharers (dead recorded sharers
  // still get their — retried, then reclaimed — invalidate, as baseline).
  const bool epoch_bump = IsReadMostly(leaf, page);
  std::vector<NodeId> targets;
  for (int n = 0; n < options_.num_nodes; ++n) {
    if (n == requester) {
      continue;
    }
    const bool in_mask = (leaf.sharers[pi] & Bit(n)) != 0;
    if (in_mask || (epoch_bump && rpc_->NodeUp(n))) {
      targets.push_back(n);
    }
  }

  struct WriteCtx {
    bool acks_done = false;  // every sharer acknowledged its invalidate
    bool page_pending = false;
    bool aborted = false;  // a hop failed; the round is void, the txn retried
    Transaction txn;
  };
  auto ctx = std::make_shared<WriteCtx>();
  ctx->txn = std::move(txn);
  ctx->acks_done = targets.empty();
  ctx->page_pending = !upgrade && !targets.empty();

  // A failed hop voids the whole round: committing with a missed invalidate
  // would leave a stale readable copy behind a partition. The transaction is
  // re-executed after backoff against the (idempotently re-invalidatable)
  // sharer mask. Only the first failure consumes the transaction; straggler
  // acks from the voided round find `aborted` set and fall through.
  auto abort_round = [this, page, ctx]() {
    if (ctx->aborted) {
      return;
    }
    ctx->aborted = true;
    stats_.write_aborts.Add(ctx->txn.requester);
    loop_->Trace(TraceCategory::kFault, "dsm_write_abort", "node=", ctx->txn.requester,
                 " page=", page);
    HandleTxnSendFailure(page, std::move(ctx->txn));
  };

  auto maybe_finish = [this, page, requester, ctx]() {
    if (ctx->aborted || !ctx->acks_done || ctx->page_pending) {
      return;
    }
    Leaf& dir = EnsurePage(page);
    const uint32_t di = Index(page);
    const TimeNs hold = OwnershipHold(dir, di, dir.owner[di] != requester);
    dir.owner[di] = static_cast<int16_t>(requester);
    dir.sharers[di] = Bit(requester);
    dir.hold_until[di] = loop_->now() + hold;
    SetResident(dir, di, requester, PageAccess::kWrite);
    BumpPageVersion(page, requester);
    if (options_.ept_dirty_tracking) {
      // A/D-bit updates generate one extra (asynchronous) sync message.
      SendProto(requester, options_.home, MsgKind::kDsmAck, kMsgHeaderBytes, []() {});
    }
    CompleteFault(page, ctx->txn);
    FinishTransaction(page);
  };

  if (targets.empty()) {
    // Sole (or no) sharer: home grants directly.
    stats_.page_transfers.Add(upgrade ? 0 : 1);
    const uint64_t bytes =
        upgrade ? kMsgHeaderBytes
                : kMsgHeaderBytes + TransferPayloadBytes(page, requester, kPageBytes);
    const MsgKind kind = upgrade ? MsgKind::kDsmAck : MsgKind::kDsmPageData;
    SendProto(options_.home, requester, kind, bytes,
              [this, maybe_finish]() mutable { loop_->ScheduleAfter(costs_->dsm_map_page, maybe_finish); },
              abort_round);
    return;
  }

  // One invalidation round over all sharers, with the rpc layer aggregating
  // the per-target acks. In the default (uncoalesced) mode this reproduces
  // the classic N invalidate + N ack exchange event-for-event; with
  // coalesced_acks the delivery confirmations stand in for the acks.
  stats_.invalidations.Add(targets.size());
  RpcLayer::MulticastOpts mopts;
  mopts.ack_kind = MsgKind::kDsmAck;
  mopts.ack_bytes = kMsgHeaderBytes;
  mopts.receiver_delay = HandlerCost();
  mopts.ack_receiver_delay = HandlerCost();
  mopts.account = &proto_accounting_;
  mopts.on_fail = abort_round;
  rpc_->Multicast(
      options_.home, targets, MsgKind::kDsmInvalidate, kMsgHeaderBytes,
      [this, page, owner, requester, upgrade, ctx, maybe_finish, abort_round](NodeId s) mutable {
        SetResident(EnsurePage(page), Index(page), s, PageAccess::kNone);
        // Hint refresh: the invalidation names the incoming owner (no-op
        // unless owner_hints).
        SetHint(s, page, requester);
        const bool ships_page = (s == owner) && !upgrade;
        if (ships_page) {
          stats_.page_transfers.Add(1);
          SendProto(s, requester, MsgKind::kDsmPageData,
                    kMsgHeaderBytes + TransferPayloadBytes(page, requester, kPageBytes),
                    [this, ctx, maybe_finish]() mutable {
                      loop_->ScheduleAfter(costs_->dsm_map_page, [ctx, maybe_finish]() mutable {
                        ctx->page_pending = false;
                        maybe_finish();
                      });
                    },
                    abort_round);
        }
      },
      [ctx, maybe_finish]() mutable {
        ctx->acks_done = true;
        maybe_finish();
      },
      std::move(mopts));
}

void DsmEngine::RunPageTablePiggyback(PageNum page, Transaction txn) {
  // Contextual DSM: the PTE delta rides on the TLB-shootdown interrupt the
  // guest sends anyway. No invalidation round, no full-page transfer; sharers
  // keep their (delta-updated) replicas.
  Leaf& leaf = EnsurePage(page);
  const uint32_t pi = Index(page);
  const NodeId requester = txn.requester;

  for (int n = 0; n < options_.num_nodes; ++n) {
    if (n != requester && (leaf.sharers[pi] & Bit(n)) != 0) {
      // Deltas are idempotent and a dead sharer needs none; losses are fine.
      SendProto(options_.home, n, MsgKind::kTlbShootdown, kPteDeltaBytes, []() {});
    }
  }

  auto txp = std::make_shared<Transaction>(std::move(txn));
  SendProto(
      options_.home, requester, MsgKind::kDsmAck, kMsgHeaderBytes,
      [this, page, requester, txp]() mutable {
        Leaf& dir = EnsurePage(page);
        const uint32_t di = Index(page);
        dir.owner[di] = static_cast<int16_t>(requester);
        dir.sharers[di] |= Bit(requester);
        dir.hold_until[di] = loop_->now() + costs_->dsm_ownership_hold;
        SetResident(dir, di, requester, PageAccess::kWrite);
        CompleteFault(page, *txp);
        FinishTransaction(page);
      },
      [this, page, txp]() { HandleTxnSendFailure(page, std::move(*txp)); });
}

const char* DsmEngine::LeafViolation(const Leaf& leaf, size_t li, const ClassRanges& ranges,
                                     uint64_t* checked) const {
  const int nodes = options_.num_nodes;
  // Hold boosts only as far as OwnershipHold raises them: a nonzero boost
  // keeps base << boost within the ceiling (tested without that shift).
  const TimeNs base = costs_->dsm_ownership_hold;
  for (const uint8_t boost : leaf.hold_boost) {
    if (boost != 0 && (boost >= 63 || (costs_->dsm_ownership_hold_max >> boost) < base)) {
      return "hold boost past dsm_ownership_hold_max";
    }
  }
  // Residency only on pages the directory knows, and only for real nodes.
  for (int n = 0; n < kMaxNodes; ++n) {
    for (uint32_t w = 0; w < kLeafWords; ++w) {
      const uint64_t allowed = n < nodes ? leaf.known[w] : 0;
      if (((leaf.present[n][w] | leaf.writable[n][w]) & ~allowed) != 0) {
        return "residency outside the directory";
      }
    }
  }
  for (uint32_t w = 0; w < kLeafWords; ++w) {
    // Transient protocol state; only quiescent pages are checked.
    uint64_t bits = leaf.known[w] & ~leaf.busy[w];
    while (bits != 0) {
      const uint32_t i = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      ++*checked;
      // The range first: Bit() of an owner past 31 shifts past the type.
      const NodeId owner = leaf.owner[i];
      if (owner < 0 || owner >= nodes) {
        return "page owner out of range";
      }
      const uint32_t sharers = leaf.sharers[i];
      if ((sharers & Bit(owner)) == 0 || (uint64_t{sharers} >> nodes) != 0) {
        return "sharer mask without its owner or past num_nodes";
      }
      // Delta-replicated classes (contextual DSM): page-table pages receive
      // piggybacked updates in place, so several nodes may legitimately hold
      // writable replicas; the same goes for bypassed IO rings.
      const PageClass cls = ClassIn(ranges, (static_cast<PageNum>(li) << kLeafBits) | i);
      const bool strict = cls != PageClass::kPageTable && cls != PageClass::kIoRing;
      for (int n = 0; n < nodes; ++n) {
        const PageAccess acc = AccessOf(leaf, i, n);
        if (((sharers & Bit(n)) != 0) != (acc != PageAccess::kNone)) {
          return "sharer mask disagrees with residency";
        }
        if (strict && acc == PageAccess::kWrite && n != owner) {
          return "writable copy off the owner";
        }
      }
      // Strict classes: a writer excludes all other copies.
      if (strict && AccessOf(leaf, i, owner) == PageAccess::kWrite && sharers != Bit(owner)) {
        return "writer shares its page";
      }
    }
  }
  return nullptr;
}

uint64_t DsmEngine::CheckInvariants() const {
  uint64_t checked = 0;
  for (size_t li = 0; li < leaves_.size(); ++li) {
    if (leaves_[li] == nullptr) {
      continue;
    }
    if (const char* why = LeafViolation(*leaves_[li], li, class_ranges_, &checked)) {
      CheckFailed(__FILE__, __LINE__, why);
    }
  }
  return checked;
}

void DsmEngine::SaveState(SnapshotWriter* w) const {
  // Quiesce check: a transaction in flight holds a busy bit and owns a
  // continuation closure no byte stream can hold. Callers snapshot only at
  // drained-queue boundaries, so this is a programming error, not input.
  FV_CHECK(waiters_.empty());
  for (const auto& leaf : leaves_) {
    FV_CHECK(leaf == nullptr || std::ranges::all_of(leaf->busy, [](uint64_t b) { return b == 0; }));
  }

  w->BeginSection("dsm.engine");
  w->U32(static_cast<uint32_t>(options_.num_nodes));
  w->U32(static_cast<uint32_t>(options_.home));
  w->U8(options_.owner_hints ? 1 : 0);
  w->U8(options_.compress ? 1 : 0);
  // Qualified: the members SaveState and LoadState hide the walks.
  fragvisor::SaveState(w, known_pages_);
  w->U32(static_cast<uint32_t>(node_faults_.size()));
  fragvisor::SaveState(w, node_faults_);
  w->U64(class_ranges_.size());
  for (const auto& [start, range] : class_ranges_) {
    w->U64(start);
    w->U64(range.first);
    w->U8(static_cast<uint8_t>(range.second));
  }
  SaveTable(w, leaves_);
  w->U32(static_cast<uint32_t>(hints_.size()));
  for (const auto& per_node : hints_) {
    SaveTable(w, per_node);
  }
  SaveTable(w, delta_);
  fragvisor::SaveState(w, stats_);
}

bool DsmEngine::LoadState(SnapshotReader* r) {
  r->Section("dsm.engine");
  const uint32_t num_nodes = r->U32();
  const uint32_t home = r->U32();
  const bool had_hints = r->U8() != 0;
  const bool had_compress = r->U8() != 0;
  if (!r->ok()) {
    return false;
  }
  if (num_nodes != static_cast<uint32_t>(options_.num_nodes) ||
      home != static_cast<uint32_t>(options_.home) || had_hints != options_.owner_hints ||
      had_compress != options_.compress) {
    return r->FailExternal(
        "dsm.engine: snapshot was taken under a different engine configuration");
  }

  // Stage everything; validate, then commit.
  uint64_t known_pages = 0;
  fragvisor::LoadState(r, &known_pages);
  const uint32_t fault_nodes = r->U32();
  if (!r->ok() || fault_nodes != num_nodes) {
    return r->FailExternal("dsm.engine: per-node fault counter width mismatch");
  }
  std::vector<Counter> faults(fault_nodes);
  fragvisor::LoadState(r, &faults);
  ClassRanges ranges;
  const uint64_t num_ranges = r->U64();
  for (uint64_t i = 0; r->ok() && i < num_ranges; ++i) {
    const PageNum start = r->U64();
    const PageNum end = r->U64();
    const uint8_t cls = r->U8();
    if (r->ok() && (cls >= static_cast<uint8_t>(PageClass::kCount) || end <= start)) {
      return r->FailExternal("dsm.engine: malformed class range");
    }
    ranges[start] = {end, static_cast<PageClass>(cls)};
  }
  constexpr uint64_t kMaxLeaves = kMaxPages >> kLeafBits;
  std::vector<std::unique_ptr<Leaf>> leaves;
  LoadTable(r, kMaxLeaves, "leaf table", "leaf", &leaves);
  const uint32_t hint_nodes = r->U32();
  if (r->ok() && hint_nodes != (had_hints ? num_nodes : 0)) {
    return r->FailExternal("dsm.engine: hint table width mismatch");
  }
  std::vector<std::vector<std::unique_ptr<HintLeaf>>> hints(hint_nodes);
  for (auto& per_node : hints) {
    LoadTable(r, kMaxLeaves, "hint table", "hint leaf", &per_node);
  }
  std::vector<std::unique_ptr<DeltaLeaf>> delta;
  LoadTable(r, kMaxLeaves, "version table", "version leaf", &delta);
  DsmStats stats;
  fragvisor::LoadState(r, &stats);
  if (!r->ok()) {
    return false;
  }

  // Validate: a directory that would trip CheckInvariants, or send to a node
  // that does not exist, is refused here rather than aborting the run later.
  if (stats.txn_retries.num_nodes() != options_.num_nodes ||
      stats.txn_absorbed.num_nodes() != options_.num_nodes ||
      stats.write_aborts.num_nodes() != options_.num_nodes) {
    return r->FailExternal("dsm.engine: retry counter width mismatch");
  }
  uint64_t pages = 0;
  for (size_t li = 0; li < leaves.size(); ++li) {
    const char* why = leaves[li] != nullptr ? LeafViolation(*leaves[li], li, ranges, &pages)
                                            : nullptr;
    if (why != nullptr) {
      return r->FailExternal(std::string("dsm.engine: ") + why);
    }
  }
  for (const auto& per_node : hints) {
    for (const auto& h : per_node) {
      if (h != nullptr && std::ranges::any_of(h->pred, [this](int16_t p) {
            return p < -1 || p >= options_.num_nodes;
          })) {
        return r->FailExternal("dsm.engine: owner hint out of range");
      }
    }
  }

  known_pages_ = known_pages;
  node_faults_ = std::move(faults);
  class_ranges_ = std::move(ranges);
  leaves_ = std::move(leaves);
  hints_ = std::move(hints);
  delta_ = std::move(delta);
  stats_ = std::move(stats);
  waiters_.clear();
  return true;
}

}  // namespace fragvisor

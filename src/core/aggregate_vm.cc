#include "src/core/aggregate_vm.h"

#include <algorithm>
#include <utility>

#include "src/io/dsm_transfer.h"
#include "src/sim/check.h"

namespace fragvisor {
namespace {

// Architectural state shipped on a vCPU migration: registers, lAPIC state,
// MSRs, FPU and hypervisor metadata.
constexpr uint64_t kVcpuStateBytes = 16 * 1024;
constexpr uint64_t kLocationUpdateBytes = 128;
constexpr uint64_t kIpiBytes = 64;

}  // namespace

AggregateVm::AggregateVm(Cluster* cluster, AggregateVmConfig config)
    : cluster_(cluster), config_(std::move(config)), costs_(cluster->costs()) {
  FV_CHECK(cluster != nullptr);
  FV_CHECK(!config_.placement.empty());

  if (config_.platform == Platform::kGiantVm) {
    // The competitor: user-space DSM, polling helpers, single-queue
    // no-bypass I/O, unmodified guest.
    costs_ = config_.giantvm.AdjustCosts(costs_);
    config_.io_multiqueue = false;
    config_.io_dsm_bypass = false;
    config_.contextual_dsm = false;
    config_.dsm_read_prefetch = 0;
    config_.dsm_owner_hints = false;
    config_.dsm_read_mostly_replication = false;
    config_.dsm_adaptive_granularity = false;
    config_.dsm_rdma_read = false;
    config_.dsm_compress = false;
    config_.guest = GuestKernelConfig::Vanilla();
    // GiantVM exposes a static virtual NUMA topology, so an unmodified guest
    // still allocates node-locally; what it lacks is the false-sharing patch,
    // runtime topology updates and the dirty-bit optimization.
    config_.guest.numa_aware = true;
  }

  DsmEngine::Options dsm_opts;
  dsm_opts.home = config_.bootstrap_node();
  dsm_opts.num_nodes = cluster_->num_nodes();
  dsm_opts.contextual_dsm = config_.contextual_dsm;
  dsm_opts.ept_dirty_tracking = config_.guest.ept_dirty_tracking;
  dsm_opts.read_prefetch_pages = config_.dsm_read_prefetch;
  dsm_opts.owner_hints = config_.dsm_owner_hints;
  dsm_opts.read_mostly_replication = config_.dsm_read_mostly_replication;
  dsm_opts.adaptive_granularity = config_.dsm_adaptive_granularity;
  dsm_opts.rdma_read = config_.dsm_rdma_read;
  dsm_opts.compress = config_.dsm_compress;
  if (config_.platform == Platform::kGiantVm) {
    dsm_opts = config_.giantvm.AdjustDsmOptions(dsm_opts);
  }
  dsm_ = std::make_unique<DsmEngine>(&cluster_->loop(), &cluster_->rpc(), &costs_, dsm_opts);

  std::vector<NodeId> slice_nodes;
  for (const VcpuPlacement& p : config_.placement) {
    if (std::find(slice_nodes.begin(), slice_nodes.end(), p.node) == slice_nodes.end()) {
      slice_nodes.push_back(p.node);
    }
  }
  space_ = std::make_unique<GuestAddressSpace>(dsm_.get(), config_.layout, slice_nodes);
  guest_kernel_ = std::make_unique<GuestKernel>(config_.guest, space_.get(), &costs_);

  const NodeId backend =
      config_.io_backend_node != kInvalidNode ? config_.io_backend_node : config_.bootstrap_node();
  auto locator = [this](int v) { return VcpuNode(v); };
  if (config_.want_net) {
    VirtioNetConfig net_cfg;
    net_cfg.backend_node = backend;
    net_cfg.multiqueue = config_.io_multiqueue;
    net_cfg.dsm_bypass = config_.io_dsm_bypass;
    net_cfg.num_vcpus = config_.num_vcpus();
    net_cfg.external_node = config_.external_node;
    net_ = std::make_unique<VirtioNetDev>(&cluster_->loop(), &cluster_->rpc(), dsm_.get(),
                                          space_.get(), &costs_, net_cfg, locator);
    net_->set_rx_sink([this](int vcpu, uint64_t bytes, PageNum copy_first, uint64_t copy_pages) {
      DeliverInbox(vcpu, InboxItem{InboxType::kNet, bytes, -1, copy_first, copy_pages});
    });
    // Distributed I/O: extra physical NICs on other slices. All share the
    // guest's inbox; NetSend routes through the nearest one.
    for (const NodeId nic_node : config_.extra_nic_nodes) {
      VirtioNetConfig extra_cfg = net_cfg;
      extra_cfg.backend_node = nic_node;
      auto extra = std::make_unique<VirtioNetDev>(&cluster_->loop(), &cluster_->rpc(),
                                                  dsm_.get(), space_.get(), &costs_, extra_cfg,
                                                  locator);
      extra->set_rx_sink(
          [this](int vcpu, uint64_t bytes, PageNum copy_first, uint64_t copy_pages) {
            DeliverInbox(vcpu, InboxItem{InboxType::kNet, bytes, -1, copy_first, copy_pages});
          });
      extra_nets_.push_back(std::move(extra));
    }
  }
  if (config_.want_blk) {
    VirtioBlkConfig blk_cfg;
    blk_cfg.backend_node = backend;
    blk_cfg.backend = config_.blk_backend;
    blk_cfg.multiqueue = config_.io_multiqueue;
    blk_cfg.dsm_bypass = config_.io_dsm_bypass;
    blk_cfg.num_vcpus = config_.num_vcpus();
    blk_ = std::make_unique<VirtioBlkDev>(&cluster_->loop(), &cluster_->rpc(), dsm_.get(),
                                          space_.get(), &costs_, blk_cfg, locator);
  }
  if (config_.want_console) {
    console_ = std::make_unique<ConsoleDev>(&cluster_->loop(), &cluster_->rpc(), &costs_,
                                            config_.bootstrap_node(), locator);
  }

  const size_t n = static_cast<size_t>(config_.num_vcpus());
  streams_.resize(n);
  vcpus_.resize(n);
  vcpu_node_.resize(n, kInvalidNode);
  inbox_.resize(n);
  wait_mode_.resize(n, WaitMode::kNone);
  wait_cb_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    vcpu_node_[i] = config_.placement[i].node;
  }

  RegisterTenantShares();
}

AggregateVm::~AggregateVm() {
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    cluster_->node(n).tenants().ReleaseAll(config_.vm_id);
  }
}

void AggregateVm::RegisterTenantShares() {
  for (const VcpuPlacement& p : config_.placement) {
    cluster_->node(p.node).tenants().ForceReserve(config_.vm_id, 0, 1);
  }

  // Memory: the whole guest address space, split evenly across the slices
  // that contribute RAM (vCPU-bearing slices plus memory-only companions).
  std::vector<NodeId> mem_nodes;
  auto add_mem_node = [&mem_nodes](NodeId node) {
    if (std::find(mem_nodes.begin(), mem_nodes.end(), node) == mem_nodes.end()) {
      mem_nodes.push_back(node);
    }
  };
  for (const VcpuPlacement& p : config_.placement) add_mem_node(p.node);
  for (const NodeId n : config_.memory_slices) add_mem_node(n);
  const uint64_t total_bytes = space_->total_pages() * 4096;
  const uint64_t per_slice = total_bytes / mem_nodes.size();
  for (const NodeId n : mem_nodes) {
    cluster_->node(n).tenants().ForceReserve(config_.vm_id, per_slice, 0);
  }

  // Delegated backends.
  const NodeId backend =
      config_.io_backend_node != kInvalidNode ? config_.io_backend_node : config_.bootstrap_node();
  if (config_.want_net || config_.want_blk) {
    cluster_->node(backend).tenants().ForceReserve(config_.vm_id, 0, 0, /*io_backends=*/1);
  }
  for (const NodeId nic_node : config_.extra_nic_nodes) {
    cluster_->node(nic_node).tenants().ForceReserve(config_.vm_id, 0, 0, /*io_backends=*/1);
  }
}

void AggregateVm::SetWorkload(int vcpu, std::unique_ptr<OpStream> stream) {
  FV_CHECK(!booted_);
  FV_CHECK_GE(vcpu, 0);
  FV_CHECK_LT(vcpu, num_vcpus());
  streams_[static_cast<size_t>(vcpu)] = std::move(stream);
}

void AggregateVm::Boot() {
  FV_CHECK(!booted_);
  booted_ = true;
  boot_time_ = cluster_->loop().now();
  for (int i = 0; i < num_vcpus(); ++i) {
    const size_t idx = static_cast<size_t>(i);
    FV_CHECK(streams_[idx] != nullptr);
    auto vcpu = std::make_unique<VCpu>(&cluster_->loop(), &costs_, this, i, streams_[idx].get());
    vcpu->set_on_finished([this](VCpu*) { ++finished_vcpus_; });
    const VcpuPlacement& p = config_.placement[idx];
    vcpu->BindPCpu(&cluster_->node(p.node).pcpu(p.pcpu), p.node);
    vcpus_[idx] = std::move(vcpu);
  }
  // The bootstrap slice creates vCPU threads and distributes them to the
  // companion slices (remote thread creation at boot, Sec. 6.2): companions
  // start after one state-transfer message each.
  const NodeId origin = config_.bootstrap_node();
  for (int i = 0; i < num_vcpus(); ++i) {
    VCpu* vc = vcpus_[static_cast<size_t>(i)].get();
    const NodeId target = vcpu_node_[static_cast<size_t>(i)];
    if (target == origin) {
      vc->Start();
      continue;
    }
    cluster_->rpc().Call(origin, target, MsgKind::kVcpuMigration, kVcpuStateBytes, [vc]() {
      // A migration issued before boot completed supersedes this start.
      if (vc->life_state() == VCpu::LifeState::kCreated) {
        vc->Start();
      }
    });
  }
}

EventLoop& AggregateVm::loop() { return cluster_->loop(); }

bool AggregateVm::AllFinished() const {
  return booted_ && finished_vcpus_ == num_vcpus();
}

VCpu& AggregateVm::vcpu(int i) {
  FV_CHECK_GE(i, 0);
  FV_CHECK_LT(i, num_vcpus());
  FV_CHECK(vcpus_[static_cast<size_t>(i)] != nullptr);
  return *vcpus_[static_cast<size_t>(i)];
}

const VCpu& AggregateVm::vcpu(int i) const {
  FV_CHECK_GE(i, 0);
  FV_CHECK_LT(i, num_vcpus());
  FV_CHECK(vcpus_[static_cast<size_t>(i)] != nullptr);
  return *vcpus_[static_cast<size_t>(i)];
}

NodeId AggregateVm::VcpuNode(int vcpu) const {
  FV_CHECK_GE(vcpu, 0);
  FV_CHECK_LT(vcpu, num_vcpus());
  return vcpu_node_[static_cast<size_t>(vcpu)];
}

std::vector<NodeId> AggregateVm::NodesInUse() const {
  std::vector<NodeId> nodes;
  for (const NodeId n : vcpu_node_) {
    if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
      nodes.push_back(n);
    }
  }
  return nodes;
}

// --- Mobility ---

void AggregateVm::MigrateVcpu(int vcpu_id, NodeId dest_node, int dest_pcpu,
                              std::function<void()> done) {
  FV_CHECK(config_.platform == Platform::kFragVisor);  // GiantVM has no mobility
  FV_CHECK(booted_);
  VCpu* vc = &vcpu(vcpu_id);
  const NodeId src = vc->node();
  const TimeNs t0 = cluster_->loop().now();
  cluster_->loop().Trace(TraceCategory::kMigration, "vcpu_migration_start", "vcpu=", vcpu_id,
                         " ", src, "->", dest_node);

  vc->PauseWhenOffCpu([this, vc, vcpu_id, src, dest_node, dest_pcpu, t0,
                       done = std::move(done)]() mutable {
    // Register/FPU/lAPIC dump at the source.
    cluster_->loop().ScheduleAfter(costs_.vcpu_register_dump, [this, vc, vcpu_id, src, dest_node,
                                                                dest_pcpu, t0,
                                                                done = std::move(done)]() mutable {
      // Update the replicated vCPU location table on every other slice.
      vcpu_node_[static_cast<size_t>(vcpu_id)] = dest_node;
      for (const NodeId n : NodesInUse()) {
        if (n != src && n != dest_node) {
          cluster_->rpc().Call(src, n, MsgKind::kControl, kLocationUpdateBytes, []() {});
        }
      }
      // Runtime NUMA topology update (ACPI SRAT notification) for aware guests.
      if (config_.guest.numa_aware && src != dest_node) {
        numa_updates_.Add(1);
        for (const NodeId n : NodesInUse()) {
          if (n != src) {
            cluster_->rpc().Call(src, n, MsgKind::kControl, kLocationUpdateBytes, []() {});
          }
        }
      }
      // Ship the vCPU state and resume at the destination.
      cluster_->rpc().Call(src, dest_node, MsgKind::kVcpuMigration, kVcpuStateBytes,
                              [this, vc, vcpu_id, dest_node, dest_pcpu, t0,
                               done = std::move(done)]() mutable {
        const TimeNs restore = costs_.vcpu_state_restore + costs_.vcpu_migration_misc;
        cluster_->loop().ScheduleAfter(restore, [this, vc, vcpu_id, dest_node, dest_pcpu, t0,
                                                 done = std::move(done)]() mutable {
          vc->ResumeOn(&cluster_->node(dest_node).pcpu(dest_pcpu), dest_node);
          migration_latency_ns_.Record(static_cast<double>(cluster_->loop().now() - t0));
          cluster_->loop().Trace(TraceCategory::kMigration, "vcpu_migration_done", "vcpu=",
                                 vcpu_id, " latency_us=", ToMicros(cluster_->loop().now() - t0));
          if (done) {
            done();
          }
        });
      });
    });
  });
}

std::vector<AggregateVm::SliceReport> AggregateVm::Slices() const {
  std::vector<SliceReport> slices;
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    SliceReport report;
    report.node = n;
    report.bootstrap = n == config_.bootstrap_node();
    for (const NodeId vn : vcpu_node_) {
      report.vcpus += vn == n ? 1 : 0;
    }
    report.pages_owned = dsm_->PagesOwnedBy(n).size();
    report.pages_resident = dsm_->ResidentPageCount(n);
    report.dsm_faults = dsm_->FaultsByNode(n);
    if (net_ != nullptr && net_->config().backend_node == n) {
      report.has_nic = true;
    }
    for (const auto& extra : extra_nets_) {
      if (extra->config().backend_node == n) {
        report.has_nic = true;
      }
    }
    if (report.vcpus > 0 || report.pages_owned > 0 || report.has_nic) {
      slices.push_back(report);
    }
  }
  return slices;
}

PageNum AggregateVm::AllocFarMemory(uint64_t count) {
  FV_CHECK(!config_.memory_slices.empty());
  const NodeId node = config_.memory_slices[next_memory_slice_];
  next_memory_slice_ = (next_memory_slice_ + 1) % config_.memory_slices.size();
  return space_->AllocHeapRange(count, node);
}

void AggregateVm::RestartVcpuAt(int vcpu_id, NodeId node, int pcpu) {
  VCpu& vc = vcpu(vcpu_id);
  FV_CHECK(vc.life_state() == VCpu::LifeState::kPaused ||
           vc.life_state() == VCpu::LifeState::kFinished);
  vcpu_node_[static_cast<size_t>(vcpu_id)] = node;
  vc.ResumeOn(&cluster_->node(node).pcpu(pcpu), node);
}

// --- Leases & recovery ---

void AggregateVm::RedelegateBackends(NodeId from, NodeId to) {
  if (blk_ != nullptr && blk_->config().backend_node == from) {
    blk_->Redelegate(to);
  }
  if (net_ != nullptr && net_->config().backend_node == from) {
    net_->Redelegate(to);
  }
  for (auto& extra : extra_nets_) {
    if (extra->config().backend_node == from) {
      extra->Redelegate(to);
    }
  }
}

int AggregateVm::StartLeaseProtection(LeaseManager* leases) {
  FV_CHECK(booted_);
  FV_CHECK(leases != nullptr);
  const NodeId home = config_.bootstrap_node();
  auto handback = [this, home](const Lease& lease, LeaseEvent event) {
    if (event == LeaseEvent::kExpired || event == LeaseEvent::kRevoked) {
      OrderlyHandback(lease, home);
    }
    // kLost: the lender died with the resource; failure recovery re-homes it.
  };

  int requested = 0;
  for (int v = 0; v < num_vcpus(); ++v) {
    const NodeId n = VcpuNode(v);
    if (n == home) continue;
    leases->Grant(n, home, LeaseKind::kVcpu, static_cast<uint64_t>(v), handback);
    ++requested;
  }
  // Memory lenders: every non-bootstrap slice that hosts guest pages, whether
  // a dedicated memory slice or a vCPU slice that owns pages it touched.
  for (NodeId n = 0; n < cluster_->num_nodes(); ++n) {
    if (n == home) continue;
    const bool memory_slice = std::find(config_.memory_slices.begin(),
                                        config_.memory_slices.end(),
                                        n) != config_.memory_slices.end();
    if (!memory_slice && dsm_->PagesOwnedBy(n).empty()) continue;
    leases->Grant(n, home, LeaseKind::kMemory, static_cast<uint64_t>(n), handback);
    ++requested;
  }
  if (blk_ != nullptr && blk_->config().backend_node != home) {
    leases->Grant(blk_->config().backend_node, home, LeaseKind::kIoBackend, 0, handback);
    ++requested;
  }
  if (net_ != nullptr && net_->config().backend_node != home) {
    leases->Grant(net_->config().backend_node, home, LeaseKind::kIoBackend, 1, handback);
    ++requested;
  }
  for (size_t i = 0; i < extra_nets_.size(); ++i) {
    const NodeId backend = extra_nets_[i]->config().backend_node;
    if (backend == home) continue;
    leases->Grant(backend, home, LeaseKind::kIoBackend, 2 + i, handback);
    ++requested;
  }
  return requested;
}

void AggregateVm::OrderlyHandback(const Lease& lease, NodeId home) {
  switch (lease.kind) {
    case LeaseKind::kVcpu: {
      const int v = static_cast<int>(lease.resource);
      if (VcpuNode(v) != lease.lender) return;  // already moved elsewhere
      if (vcpu(v).finished()) return;
      const int pcpu = v % cluster_->node(home).num_pcpus();
      MigrateVcpu(v, home, pcpu, nullptr);
      return;
    }
    case LeaseKind::kMemory:
      if (cluster_->rpc().NodeUp(lease.lender)) {
        dsm_->MigrateOwnedPages(lease.lender, home, [](uint64_t) {});
      }
      return;
    case LeaseKind::kIoBackend:
      RedelegateBackends(lease.lender, home);
      return;
  }
}

// --- GuestContext ---

bool AggregateVm::MemAccess(NodeId node, PageNum page, bool is_write,
                            std::function<void()> done) {
  return dsm_->Access(node, page, is_write, std::move(done));
}

bool AggregateVm::MemWouldHit(NodeId node, PageNum page, bool is_write) const {
  return dsm_->WouldHit(node, page, is_write);
}

void AggregateVm::ExpandAlloc(int vcpu_id, uint64_t count, std::deque<Op>* out) {
  guest_kernel_->ExpandAlloc(vcpu_id, VcpuNode(vcpu_id), count, out);
}

void AggregateVm::NotifyVcpu(NodeId from_node, int to_vcpu, std::function<void()> then) {
  const NodeId dst = VcpuNode(to_vcpu);
  EventLoop& loop = cluster_->loop();
  if (dst == from_node) {
    loop.ScheduleAfter(costs_.ipi_local, std::move(then));
    return;
  }
  loop.ScheduleAfter(costs_.ipi_to_message, [this, from_node, dst, then = std::move(then)]() mutable {
    cluster_->rpc().Call(from_node, dst, MsgKind::kIpi, kIpiBytes,
                            [this, then = std::move(then)]() mutable {
                              cluster_->loop().ScheduleAfter(costs_.irq_inject, std::move(then));
                            });
  });
}

void AggregateVm::SocketSend(int from_vcpu, int to_vcpu, uint64_t bytes,
                             std::function<void()> done) {
  FV_CHECK_GE(to_vcpu, 0);
  FV_CHECK_LT(to_vcpu, num_vcpus());
  const NodeId src = VcpuNode(from_vcpu);
  EventLoop& loop = cluster_->loop();

  // Payload staged in recycled socket-buffer pages written (locally) by the
  // sender; the receiver copies them out through the DSM when the endpoints
  // sit on different slices.
  const uint64_t pages = PagesFor(bytes);
  const PageNum first = pages > 0 ? space_->AllocTransferRange(pages, src) : 0;

  const TimeNs sender_copy =
      FromSeconds(static_cast<double>(bytes) / costs_.memcpy_bytes_per_second);
  loop.ScheduleAfter(costs_.guest_socket_hop + sender_copy,
                     [this, from_vcpu, to_vcpu, src, bytes, first, pages,
                      done = std::move(done)]() mutable {
                       // Sender resumes once the payload is queued and the peer notified.
                       done();
                       NotifyVcpu(src, to_vcpu, [this, from_vcpu, to_vcpu, bytes, first, pages]() {
                         DeliverInbox(to_vcpu, InboxItem{InboxType::kSocket, bytes, from_vcpu,
                                                         first, pages});
                       });
                     });
}

VirtioNetDev* AggregateVm::nic(size_t i) {
  FV_CHECK_LT(i, num_nics());
  if (i == 0) {
    return net_.get();
  }
  return extra_nets_[i - 1].get();
}

VirtioNetDev* AggregateVm::NearestNic(int vcpu) {
  FV_CHECK(net_ != nullptr);
  const NodeId node = VcpuNode(vcpu);
  // Exact-node match wins (no delegation hop at all); otherwise the primary.
  if (net_->config().backend_node == node) {
    return net_.get();
  }
  for (auto& extra : extra_nets_) {
    if (extra->config().backend_node == node) {
      return extra.get();
    }
  }
  return net_.get();
}

void AggregateVm::NetSend(int vcpu, uint64_t bytes, std::function<void()> done) {
  FV_CHECK(net_ != nullptr);
  NearestNic(vcpu)->GuestSend(vcpu, bytes, std::move(done));
}

void AggregateVm::BlkWrite(int vcpu, uint64_t bytes, std::function<void()> done) {
  FV_CHECK(blk_ != nullptr);
  blk_->GuestWrite(vcpu, bytes, std::move(done));
}

void AggregateVm::BlkRead(int vcpu, uint64_t bytes, std::function<void()> done) {
  FV_CHECK(blk_ != nullptr);
  blk_->GuestRead(vcpu, bytes, std::move(done));
}

// --- Inbox ---

void AggregateVm::ChargeCopyOut(int vcpu, const InboxItem& item) {
  if (item.copy_pages == 0) {
    return;
  }
  // The consuming vCPU reads the payload pages itself; remote pages fault
  // through the DSM on its own execution path.
  std::vector<Op> reads;
  reads.reserve(item.copy_pages);
  for (uint64_t i = 0; i < item.copy_pages; ++i) {
    reads.push_back(Op::MemRead(item.copy_first + i));
  }
  vcpus_[static_cast<size_t>(vcpu)]->PushMicroOpsFront(reads);
}

bool AggregateVm::ConsumeInbox(int vcpu, InboxType type) {
  auto& box = inbox_[static_cast<size_t>(vcpu)];
  for (auto it = box.begin(); it != box.end(); ++it) {
    if (it->type == type) {
      const InboxItem item = *it;
      box.erase(it);
      ChargeCopyOut(vcpu, item);
      return true;
    }
  }
  return false;
}

bool AggregateVm::HasNetInput(int vcpu) const {
  const auto& box = inbox_[static_cast<size_t>(vcpu)];
  return std::any_of(box.begin(), box.end(),
                     [](const InboxItem& i) { return i.type == InboxType::kNet; });
}

bool AggregateVm::HasSocketInput(int vcpu) const {
  const auto& box = inbox_[static_cast<size_t>(vcpu)];
  return std::any_of(box.begin(), box.end(),
                     [](const InboxItem& i) { return i.type == InboxType::kSocket; });
}

bool AggregateVm::NetRecv(int vcpu, std::function<void()> done) {
  if (ConsumeInbox(vcpu, InboxType::kNet)) {
    return true;
  }
  FV_CHECK(wait_mode_[static_cast<size_t>(vcpu)] == WaitMode::kNone);
  wait_mode_[static_cast<size_t>(vcpu)] = WaitMode::kNet;
  wait_cb_[static_cast<size_t>(vcpu)] = std::move(done);
  return false;
}

bool AggregateVm::SocketRecv(int vcpu, std::function<void()> done) {
  if (ConsumeInbox(vcpu, InboxType::kSocket)) {
    return true;
  }
  FV_CHECK(wait_mode_[static_cast<size_t>(vcpu)] == WaitMode::kNone);
  wait_mode_[static_cast<size_t>(vcpu)] = WaitMode::kSocket;
  wait_cb_[static_cast<size_t>(vcpu)] = std::move(done);
  return false;
}

bool AggregateVm::PollAny(int vcpu, std::function<void()> done) {
  if (!inbox_[static_cast<size_t>(vcpu)].empty()) {
    return true;
  }
  FV_CHECK(wait_mode_[static_cast<size_t>(vcpu)] == WaitMode::kNone);
  wait_mode_[static_cast<size_t>(vcpu)] = WaitMode::kAny;
  wait_cb_[static_cast<size_t>(vcpu)] = std::move(done);
  return false;
}

void AggregateVm::DeliverInbox(int vcpu, InboxItem item) {
  if (config_.platform == Platform::kGiantVm && item.copy_pages > 0) {
    // GiantVM: QEMU helper threads (on their extra pCPUs) perform the copy
    // asynchronously before the guest sees the data — the vCPU is never
    // charged, but the helpers burn host CPU the paper calls interference.
    const PageNum first = item.copy_first;
    const uint64_t pages = item.copy_pages;
    item.copy_first = 0;
    item.copy_pages = 0;
    DsmSequentialAccess(dsm_.get(), VcpuNode(vcpu), first, pages, /*is_write=*/false,
                        [this, vcpu, item]() { DeliverInbox(vcpu, item); });
    return;
  }
  const size_t idx = static_cast<size_t>(vcpu);
  const WaitMode mode = wait_mode_[idx];
  const bool matches = (mode == WaitMode::kAny) ||
                       (mode == WaitMode::kNet && item.type == InboxType::kNet) ||
                       (mode == WaitMode::kSocket && item.type == InboxType::kSocket);
  if (!matches) {
    inbox_[idx].push_back(item);
    return;
  }
  if (mode == WaitMode::kAny) {
    // Readiness-only: the item stays for a subsequent recv.
    inbox_[idx].push_back(item);
    wait_mode_[idx] = WaitMode::kNone;
    auto cb = std::move(wait_cb_[idx]);
    wait_cb_[idx] = nullptr;
    cb();
    return;
  }
  wait_mode_[idx] = WaitMode::kNone;
  auto cb = std::move(wait_cb_[idx]);
  wait_cb_[idx] = nullptr;
  ChargeCopyOut(vcpu, item);
  cb();
}

}  // namespace fragvisor

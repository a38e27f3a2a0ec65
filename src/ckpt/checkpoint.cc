#include "src/ckpt/checkpoint.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/sim/check.h"

namespace fragvisor {

uint64_t CheckpointInventory::total_pages() const {
  uint64_t total = 0;
  for (const uint64_t p : pages_per_node) {
    total += p;
  }
  return total;
}

CheckpointInventory InventoryFromVm(const AggregateVm& vm, int num_nodes) {
  CheckpointInventory inv;
  inv.pages_per_node.assign(static_cast<size_t>(num_nodes), 0);
  for (int n = 0; n < num_nodes; ++n) {
    inv.pages_per_node[static_cast<size_t>(n)] = vm.dsm().PagesOwnedBy(n).size();
  }
  for (int v = 0; v < vm.num_vcpus(); ++v) {
    inv.vcpu_regs.push_back(vm.vcpu(v).regs());
  }
  return inv;
}

CheckpointService::CheckpointService(Cluster* cluster) : cluster_(cluster) {
  FV_CHECK(cluster != nullptr);
}

TimeNs CheckpointService::DiskService(NodeId node, uint64_t bytes) {
  const CostModel& costs = cluster_->costs();
  TimeNs& busy = disk_busy_until_[node];
  const TimeNs start = std::max(cluster_->loop().now(), busy);
  busy = start + costs.disk_op_latency +
         FromSeconds(static_cast<double>(bytes) / costs.disk_bytes_per_second);
  return busy - cluster_->loop().now();
}

void CheckpointService::WriteImage(const CheckpointInventory& inventory, NodeId ckpt_node,
                                   std::function<void(CheckpointResult)> done) {
  struct Ctx {
    int pending = 0;
    TimeNs t0 = 0;
    CheckpointResult result;
    std::function<void(CheckpointResult)> done;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->t0 = cluster_->loop().now();
  ctx->done = std::move(done);

  auto finish_one = [this, ctx]() {
    FV_CHECK_GT(ctx->pending, 0);
    if (--ctx->pending == 0) {
      ctx->result.duration = cluster_->loop().now() - ctx->t0;
      ctx->done(ctx->result);
    }
  };

  auto disk_write = [this, ckpt_node, ctx, finish_one](uint64_t bytes) {
    ctx->result.bytes_written += bytes;
    cluster_->loop().ScheduleAfter(DiskService(ckpt_node, bytes), finish_one);
  };

  bool any = false;
  for (NodeId n = 0; n < static_cast<NodeId>(inventory.pages_per_node.size()); ++n) {
    uint64_t bytes = inventory.pages_per_node[static_cast<size_t>(n)] * 4096;
    if (bytes == 0) {
      continue;
    }
    any = true;
    if (n == ckpt_node) {
      ctx->result.local_pages += bytes / 4096;
    } else {
      ctx->result.remote_pages += bytes / 4096;
    }
    while (bytes > 0) {
      const uint64_t batch = std::min(bytes, kBatchBytes);
      bytes -= batch;
      ++ctx->pending;
      if (n == ckpt_node) {
        disk_write(batch);
      } else {
        // Remote slice streams the batch; the write starts on arrival. A
        // batch the fabric gives up on (the slice node died) is counted and
        // skipped — the checkpoint must drain, or failover deadlocks behind
        // checkpoint_in_flight. Batches are bulk-class: under the QoS
        // scheduler they yield the links to latency-critical protocol traffic.
        RpcLayer::CallOpts opts;
        opts.qos = QosClass::kBulk;
        opts.on_fail = [ctx, finish_one]() {
          ++ctx->result.lost_batches;
          finish_one();
        };
        cluster_->rpc().Call(n, ckpt_node, MsgKind::kCheckpointData, batch,
                             [disk_write, batch]() { disk_write(batch); }, std::move(opts));
      }
    }
  }
  // vCPU architectural state (small, from wherever each vCPU lives).
  const uint64_t regs_bytes = inventory.vcpu_regs.size() * 16 * 1024;
  if (regs_bytes > 0) {
    ++ctx->pending;
    any = true;
    disk_write(regs_bytes);
  }
  if (!any) {
    ++ctx->pending;
    cluster_->loop().ScheduleAfter(0, finish_one);
  }
}

void CheckpointService::CheckpointVm(AggregateVm& vm, NodeId ckpt_node,
                                     std::function<void(CheckpointResult)> done) {
  struct PauseCtx {
    int pending = 0;
    std::function<void(CheckpointResult)> done;
  };
  auto pause_ctx = std::make_shared<PauseCtx>();
  pause_ctx->pending = vm.num_vcpus();
  pause_ctx->done = std::move(done);

  auto after_pause = [this, &vm, ckpt_node, pause_ctx]() {
    const CostModel& costs = cluster_->costs();
    cluster_->loop().ScheduleAfter(costs.ckpt_quiesce, [this, &vm, ckpt_node, pause_ctx]() {
      // Copy-on-write snapshot: the VM only stays paused for the quiesce and
      // the inventory capture; the image streams to disk in the background
      // while the guest keeps running (as pre-copy/CoW checkpointing does).
      const CheckpointInventory inv = InventoryFromVm(vm, cluster_->num_nodes());
      cluster_->loop().Trace(TraceCategory::kCkpt, "checkpoint_snapshot", "pages=",
                             inv.total_pages());
      for (int v = 0; v < vm.num_vcpus(); ++v) {
        VCpu& vc = vm.vcpu(v);
        if (vc.life_state() == VCpu::LifeState::kPaused) {
          vc.ResumeOn(vc.pcpu(), vc.node());
        }
      }
      WriteImage(inv, ckpt_node,
                 [pause_ctx](CheckpointResult result) { pause_ctx->done(result); });
    });
  };

  for (int v = 0; v < vm.num_vcpus(); ++v) {
    vm.vcpu(v).PauseWhenOffCpu([pause_ctx, after_pause]() {
      if (--pause_ctx->pending == 0) {
        after_pause();
      }
    });
  }
}

void CheckpointService::RestoreImage(const CheckpointInventory& inventory, NodeId ckpt_node,
                                     std::function<void(CheckpointResult)> done) {
  struct Ctx {
    int pending = 0;
    TimeNs t0 = 0;
    CheckpointResult result;
    std::function<void(CheckpointResult)> done;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->t0 = cluster_->loop().now();
  ctx->done = std::move(done);

  auto finish_one = [this, ctx]() {
    FV_CHECK_GT(ctx->pending, 0);
    if (--ctx->pending == 0) {
      ctx->result.duration = cluster_->loop().now() - ctx->t0;
      ctx->done(ctx->result);
    }
  };

  bool any = false;
  for (NodeId n = 0; n < static_cast<NodeId>(inventory.pages_per_node.size()); ++n) {
    uint64_t bytes = inventory.pages_per_node[static_cast<size_t>(n)] * 4096;
    if (bytes == 0) {
      continue;
    }
    any = true;
    if (n == ckpt_node) {
      ctx->result.local_pages += bytes / 4096;
    } else {
      ctx->result.remote_pages += bytes / 4096;
    }
    while (bytes > 0) {
      const uint64_t batch = std::min(bytes, kBatchBytes);
      bytes -= batch;
      ++ctx->pending;
      ctx->result.bytes_written += batch;
      // Disk read, then ship to the destination slice.
      const NodeId dest = n;
      cluster_->loop().ScheduleAfter(
          DiskService(ckpt_node, batch), [this, ckpt_node, dest, batch, ctx, finish_one]() {
            if (dest == ckpt_node) {
              finish_one();
            } else {
              // An undeliverable restore batch (dead destination slice) is
              // counted and skipped so the restore always completes.
              RpcLayer::CallOpts opts;
              opts.qos = QosClass::kBulk;
              opts.on_fail = [ctx, finish_one]() {
                ++ctx->result.lost_batches;
                finish_one();
              };
              cluster_->rpc().Call(ckpt_node, dest, MsgKind::kCheckpointData, batch, finish_one,
                                   std::move(opts));
            }
          });
    }
  }
  if (!any) {
    ++ctx->pending;
    cluster_->loop().ScheduleAfter(0, finish_one);
  }
}

}  // namespace fragvisor

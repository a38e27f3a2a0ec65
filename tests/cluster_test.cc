// Cluster substrate (tier 1): TenantLedger admission invariants, the
// marketplace orchestrator (no oversubscription, lease-revocation isolation
// across tenants, full drain), worker-count and snapshot-resume
// byte-identity, and the --vms 1 degenerate case.

#include <gtest/gtest.h>

#include <string>

#include "src/cluster/marketplace.h"
#include "src/host/node.h"

namespace fragvisor {
namespace {

constexpr uint64_t kGiB = 1ull << 30;

TEST(TenantLedgerTest, CheckedReserveRejectsOversubscription) {
  TenantLedger ledger;
  ledger.Init(4 * kGiB, 4);

  EXPECT_TRUE(ledger.Reserve(/*vm=*/1, 2 * kGiB, 2));
  EXPECT_EQ(ledger.free_mem(), 2 * kGiB);
  EXPECT_EQ(ledger.free_vcpus(), 2);

  // Over memory: rejected with no side effects.
  EXPECT_FALSE(ledger.Reserve(/*vm=*/2, 3 * kGiB, 1));
  // Over vCPU slots: rejected with no side effects.
  EXPECT_FALSE(ledger.Reserve(/*vm=*/2, kGiB, 3));
  EXPECT_EQ(ledger.committed_mem(), 2 * kGiB);
  EXPECT_EQ(ledger.committed_vcpus(), 2);
  EXPECT_EQ(ledger.num_tenants(), 1);
  EXPECT_EQ(ledger.ShareOf(2).vcpu_slots, 0);

  // Exactly filling the node is fine.
  EXPECT_TRUE(ledger.Reserve(/*vm=*/2, 2 * kGiB, 2));
  EXPECT_EQ(ledger.free_mem(), 0u);
  EXPECT_EQ(ledger.free_vcpus(), 0);
  EXPECT_EQ(ledger.num_tenants(), 2);
}

TEST(TenantLedgerTest, ReleaseAllDropsOnlyThatTenant) {
  TenantLedger ledger;
  ledger.Init(8 * kGiB, 8);
  ASSERT_TRUE(ledger.Reserve(1, 2 * kGiB, 2));
  ASSERT_TRUE(ledger.Reserve(2, 3 * kGiB, 3));

  const TenantLedger::VmShare gone = ledger.ReleaseAll(1);
  EXPECT_EQ(gone.mem_bytes, 2 * kGiB);
  EXPECT_EQ(gone.vcpu_slots, 2);
  EXPECT_EQ(ledger.num_tenants(), 1);
  EXPECT_EQ(ledger.ShareOf(2).mem_bytes, 3 * kGiB);
  EXPECT_EQ(ledger.ShareOf(2).vcpu_slots, 3);
  EXPECT_EQ(ledger.committed_vcpus(), 3);

  // Departing again is a no-op.
  EXPECT_EQ(ledger.ReleaseAll(1).vcpu_slots, 0);

  // Partial release keeps the tenant until its share hits zero.
  ledger.Release(2, kGiB, 1);
  EXPECT_EQ(ledger.ShareOf(2).vcpu_slots, 2);
  ledger.Release(2, 2 * kGiB, 2);
  EXPECT_EQ(ledger.num_tenants(), 0);
  EXPECT_EQ(ledger.committed_mem(), 0u);
}

TEST(TenantLedgerTest, ForceReserveOvercommitsForLegacyPlacements) {
  TenantLedger ledger;
  ledger.Init(kGiB, 1);
  ledger.ForceReserve(1, 2 * kGiB, 4);
  EXPECT_EQ(ledger.committed_vcpus(), 4);
  EXPECT_EQ(ledger.ShareOf(1).mem_bytes, 2 * kGiB);
}

MarketplaceOptions SmallMarketplace() {
  MarketplaceOptions mo;
  mo.num_nodes = 6;
  mo.vcpus_per_node = 4;
  mo.trace.kind = ArrivalKind::kFlash;
  mo.trace.vms = 30;
  mo.trace.max_vcpus = 8;
  mo.trace.requests_per_vcpu = 500;
  return mo;
}

TEST(MarketplaceTest, DrainsWithoutOversubscription) {
  const MarketplaceOptions mo = SmallMarketplace();
  const MarketplaceResult r = RunMarketplace(mo, 1);

  // Every tenant was admitted eventually and ran to completion (TryAdmit's
  // checked Reserve FV_CHECKs rule out oversubscription along the way; the
  // drain check rules out leaked shares or leases).
  EXPECT_EQ(r.vms_completed, static_cast<uint64_t>(mo.trace.vms));
  EXPECT_EQ(r.placed_single + r.placed_aggregate, static_cast<uint64_t>(mo.trace.vms));
  for (const VmOutcome& vm : r.vms) {
    EXPECT_TRUE(vm.completed);
    EXPECT_GE(vm.started, vm.submitted);
    EXPECT_GT(vm.finished, vm.started);
    EXPECT_GE(vm.span_nodes, 1);
  }
  // No tenant ever spans more slots than exist cluster-wide.
  EXPECT_LE(static_cast<int>(mo.trace.max_vcpus), mo.num_nodes * mo.vcpus_per_node);
  EXPECT_GT(r.latency.count(), 0u);
}

TEST(MarketplaceTest, ReclamationIsolatesOtherTenants) {
  const MarketplaceOptions mo = SmallMarketplace();
  const MarketplaceResult r = RunMarketplace(mo, 1);

  // This configuration exercises the consolidation path: at least one
  // running tenant had a lease revoked so its share could be called home.
  ASSERT_GT(r.reclaims, 0u);
  EXPECT_EQ(r.lease.revoked.value(), r.reclaims);
  EXPECT_EQ(r.lease.handbacks.value(), r.reclaims);

  // Every activated lease ended in exactly one of released/revoked — a
  // revocation of tenant A's lease never tore down tenant B's.
  EXPECT_EQ(r.lease.granted.value(), r.lease.released.value() + r.lease.revoked.value());

  // And the victims still finished: reclamation moves a tenant, it does not
  // evict it.
  EXPECT_EQ(r.vms_completed, static_cast<uint64_t>(mo.trace.vms));
  for (const VmOutcome& vm : r.vms) EXPECT_TRUE(vm.completed);
}

TEST(MarketplaceTest, ReportByteIdenticalAcrossWorkerCounts) {
  const MarketplaceOptions mo = SmallMarketplace();
  const std::string serial = MarketplaceReport(RunMarketplace(mo, 1));
  // 4 and 5 workers split the 6 nodes into uneven blocks.
  for (const int threads : {2, 3, 4, 5}) {
    EXPECT_EQ(MarketplaceReport(RunMarketplace(mo, threads)), serial) << "threads=" << threads;
  }
}

TEST(MarketplaceTest, SnapshotResumeByteIdentical) {
  MarketplaceOptions mo = SmallMarketplace();
  mo.epochs = 2;
  const std::string golden = MarketplaceReport(RunMarketplace(mo, 2));

  std::string snapshot;
  MarketplaceRunConfig save;
  save.snapshot_out = &snapshot;
  save.snapshot_epoch = 1;
  RunMarketplaceEx(mo, 2, save);
  ASSERT_FALSE(snapshot.empty());

  MarketplaceRunConfig load;
  load.snapshot_in = &snapshot;
  std::string error;
  load.error = &error;
  const MarketplaceResult resumed = RunMarketplaceEx(mo, 4, load);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(MarketplaceReport(resumed), golden);
}

TEST(MarketplaceTest, SingleVmDegeneratesToWholePlacement) {
  MarketplaceOptions mo;
  mo.num_nodes = 4;
  mo.vcpus_per_node = 8;
  mo.trace.vms = 1;
  mo.trace.max_vcpus = 4;
  mo.trace.requests_per_vcpu = 200;
  const MarketplaceResult r = RunMarketplace(mo, 1);
  EXPECT_EQ(r.placed_single, 1u);
  EXPECT_EQ(r.placed_aggregate, 0u);
  EXPECT_EQ(r.delayed, 0u);
  EXPECT_EQ(r.lease.granted.value(), 0u);
  ASSERT_EQ(r.vms.size(), 1u);
  EXPECT_EQ(r.vms[0].span_nodes, 1);
  EXPECT_TRUE(r.vms[0].completed);

  // Still byte-identical across worker counts.
  const std::string serial = MarketplaceReport(r);
  EXPECT_EQ(MarketplaceReport(RunMarketplace(mo, 4)), serial);
}

TEST(MarketplaceTest, MemoryCapsTheSlotsANodeHosts) {
  // 2 GiB per node at 1 GiB per vCPU: memory, not the 4 vCPU slots, caps
  // every node at 2 slots, so a VM of v vCPUs spans at least ceil(v/2) nodes.
  MarketplaceOptions mo = SmallMarketplace();
  mo.mem_per_node = 2 * kGiB;
  mo.trace.mem_per_vcpu = kGiB;
  for (const char* policy : {"fragbff", "harvest"}) {
    mo.policy = policy;
    const MarketplaceResult r = RunMarketplace(mo, 1);
    EXPECT_EQ(r.vms_completed, static_cast<uint64_t>(mo.trace.vms)) << policy;
    int capped = 0;  // VMs that 4 vCPU slots alone would have held whole
    for (const VmOutcome& vm : r.vms) {
      EXPECT_TRUE(vm.completed) << policy << " vm " << vm.vm;
      EXPECT_GE(vm.span_nodes, (vm.vcpus + 1) / 2) << policy << " vm " << vm.vm;
      if (vm.vcpus > 2 && vm.vcpus <= mo.vcpus_per_node) ++capped;
    }
    EXPECT_GT(capped, 0) << policy;
  }
}

TEST(MarketplaceTest, PoliciesDivergeOnFragmentedClusters) {
  MarketplaceOptions mo = SmallMarketplace();
  mo.policy = "fragbff";
  const MarketplaceResult bff = RunMarketplace(mo, 1);
  mo.policy = "harvest";
  const MarketplaceResult harvest = RunMarketplace(mo, 1);
  // Both drain fully; the placements differ (that is the whole ablation).
  EXPECT_EQ(bff.vms_completed, harvest.vms_completed);
  EXPECT_NE(MarketplaceReport(bff), MarketplaceReport(harvest));
}

}  // namespace
}  // namespace fragvisor

// Marketplace fault tolerance (tier 1) + the seeded chaos campaign sweep
// (tier 2, compiled into fv_fault_tests with FV_CHAOS_TIER2 and swept over
// FV_FAULT_SEED by CI).
//
// Tier 1 pins the tentpole behaviors deterministically:
//  * a lender crash mid-wave triggers tenant-aware recovery — only VMs homed
//    on the dead node fail, co-tenants borrowing from it are re-placed or
//    degraded and still complete;
//  * an orchestrator (node 0) crash mid-wave fails over to the deterministic
//    successor, the wave completes, every invariant holds, and the report is
//    byte-identical at 1/2/4 workers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/cluster/chaos.h"
#include "src/cluster/marketplace.h"

namespace fragvisor {
namespace {

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

#ifndef FV_CHAOS_TIER2

// Fault instants scale off the fault-free horizon so the schedule stays
// mid-wave even if request costs shift.
TimeNs Horizon(const MarketplaceOptions& mo) {
  return RunMarketplace(mo, 1).finish_time;
}

TEST(ClusterChaosTest, EmptyFaultPlanStaysOnLegacyPath) {
  MarketplaceOptions mo = SmallMarketplace();
  ASSERT_FALSE(mo.faults.any());
  const MarketplaceResult r = RunMarketplace(mo, 2);
  EXPECT_FALSE(r.used_fault_plan);
  EXPECT_EQ(r.vms_failed, 0u);
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_EQ(MarketplaceReport(r).find("chaos "), std::string::npos);
}

TEST(ClusterChaosTest, LenderCrashMidWaveRecoversPerTenant) {
  MarketplaceOptions mo = SmallMarketplace();
  const TimeNs horizon = Horizon(mo);
  const int dead = 3;
  mo.faults.crashes.push_back({dead, horizon * 3 / 10});
  const MarketplaceResult r = RunMarketplace(mo, 2);

  EXPECT_TRUE(r.used_fault_plan);
  EXPECT_GE(r.nodes_died, 1u);
  for (const std::string& v : CheckClusterInvariants(mo, r)) {
    ADD_FAILURE() << "invariant violated: " << v;
  }
  // Surgical recovery: only VMs homed on the dead node may fail, and only
  // with the home-crash verdict; everyone else completes.
  for (const VmOutcome& o : r.vms) {
    if (o.failed) {
      EXPECT_EQ(o.home, dead) << "vm " << o.vm << " failed but was homed elsewhere";
      EXPECT_EQ(o.fail_reason, VmFailReason::kHomeCrash);
    } else {
      EXPECT_TRUE(o.completed);
    }
  }
  EXPECT_LT(r.vms_failed, static_cast<uint64_t>(mo.trace.vms));
  EXPECT_GT(r.vms_completed, 0u);
}

TEST(ClusterChaosTest, OrchestratorCrashFailsOverDeterministically) {
  MarketplaceOptions mo = SmallMarketplace();
  const TimeNs horizon = Horizon(mo);
  mo.faults.crashes.push_back({0, horizon * 3 / 10});

  const MarketplaceResult r1 = RunMarketplace(mo, 1);
  EXPECT_TRUE(r1.used_fault_plan);
  EXPECT_GE(r1.failovers, 1u);
  for (const std::string& v : CheckClusterInvariants(mo, r1)) {
    ADD_FAILURE() << "invariant violated: " << v;
  }
  // Some tenant outlives its orchestrator: the successor resumed the wave.
  EXPECT_GT(r1.vms_completed, 0u);

  // The determinism contract survives the failover: byte-identical reports
  // at any worker count.
  const std::string rep1 = MarketplaceReport(r1);
  EXPECT_EQ(rep1, MarketplaceReport(RunMarketplace(mo, 2)));
  EXPECT_EQ(rep1, MarketplaceReport(RunMarketplace(mo, 4)));
}

TEST(ClusterChaosTest, CampaignSmokeHoldsInvariants) {
  ChaosCampaignOptions co;
  co.base = SmallMarketplace();
  co.base.trace.vms = 12;
  co.base.trace.requests_per_vcpu = 200;
  co.seeds = 1;
  co.threads = 2;
  co.verify_threads = 0;  // thread-compare covered above; keep tier 1 fast
  const ChaosCampaignResult r = RunChaosCampaign(co);
  EXPECT_EQ(r.runs.size(), 3u);  // crash, partition, jitter
  for (const ChaosRunResult& run : r.runs) {
    for (const std::string& v : run.violations) {
      ADD_FAILURE() << ChaosModeName(run.mode) << " seed " << run.seed << ": " << v;
    }
  }
  EXPECT_EQ(r.total_violations, 0u);
}

#else  // FV_CHAOS_TIER2

// Tier 2: the full campaign — every mode, several seeds, with the
// worker-count byte-compare on each run. CI sweeps FV_FAULT_SEED.
TEST(ClusterChaosSweepTest, SeededCampaignHoldsAllInvariants) {
  uint64_t seed0 = 1;
  if (const char* env = std::getenv("FV_FAULT_SEED")) {
    seed0 = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
    if (seed0 == 0) seed0 = 1;
  }
  ChaosCampaignOptions co;
  co.base = SmallMarketplace();
  co.seeds = 3;
  co.seed0 = seed0;
  co.threads = 1;
  co.verify_threads = 4;
  const ChaosCampaignResult r = RunChaosCampaign(co);
  EXPECT_EQ(r.runs.size(), 9u);
  for (const ChaosRunResult& run : r.runs) {
    for (const std::string& v : run.violations) {
      ADD_FAILURE() << ChaosModeName(run.mode) << " seed " << run.seed << ": " << v;
    }
  }
  EXPECT_EQ(r.total_violations, 0u);

  // The campaign report itself is deterministic for a given seed block.
  EXPECT_EQ(ChaosCampaignReport(r), ChaosCampaignReport(RunChaosCampaign(co)));
}

#endif  // FV_CHAOS_TIER2

}  // namespace
}  // namespace fragvisor

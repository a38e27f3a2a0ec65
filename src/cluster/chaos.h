// Deterministic cluster chaos campaign (DESIGN.md §12.5): sweeps seeded
// crash / partition / jitter schedules over a base marketplace configuration
// and checks cluster-level invariants on every run.
//
// The campaign is itself deterministic: fault schedules are pure functions
// of (mode, seed), every run goes through RunMarketplace on the conservative
// parallel core, and the report is byte-identical at any worker count. Each
// run is additionally re-executed at `verify_threads` and the two
// MarketplaceReport() byte streams compared — a mismatch is an invariant
// violation like any other.

#ifndef FRAGVISOR_SRC_CLUSTER_CHAOS_H_
#define FRAGVISOR_SRC_CLUSTER_CHAOS_H_

#include <string>
#include <vector>

#include "src/cluster/marketplace.h"

namespace fragvisor {

enum class ChaosMode {
  kCrash = 0,      // two staggered node crashes (the first hits node 0)
  kPartition = 1,  // a healed link partition mid-wave
  kJitter = 2,     // stochastic drop + duplication + extra delay
};

const char* ChaosModeName(ChaosMode mode);

struct ChaosCampaignOptions {
  MarketplaceOptions base;  // faults/failover fields are overwritten per run
  int seeds = 3;            // runs per mode
  uint64_t seed0 = 1;       // first seed; run i uses seed0 + i
  bool crash = true;
  bool partition = true;
  bool jitter = true;
  int threads = 1;
  int verify_threads = 2;   // second execution for the byte-compare (0 = off)
};

struct ChaosRunResult {
  ChaosMode mode = ChaosMode::kCrash;
  uint64_t seed = 0;
  MarketplaceResult result;
  std::vector<std::string> violations;  // empty = all invariants held
};

struct ChaosCampaignResult {
  std::vector<ChaosRunResult> runs;
  uint64_t total_violations = 0;
};

// The options of one campaign run: `base` with the deterministic fault seed
// and schedule that (mode, seed) derive (exposed so tests and the CLI can
// reproduce a single run).
MarketplaceOptions MakeChaosRun(const MarketplaceOptions& base, ChaosMode mode, uint64_t seed);

// Cluster-level invariants over a finished run; returns human-readable
// violation strings (empty = pass):
//  * exactly-once: every VM completed xor failed, and the counts add up;
//  * lease conservation: every granted lease was terminated exactly once
//    (released/revoked/expired/lost) or scrubbed (dropped/orphaned/
//    failover-cleared), nothing double-booked or stranded;
//  * reclamation consistency: revocations == consolidations arbitrated;
//  * ledger residue: no committed slots survive the final drain.
std::vector<std::string> CheckClusterInvariants(const MarketplaceOptions& opts,
                                                const MarketplaceResult& r);

ChaosCampaignResult RunChaosCampaign(const ChaosCampaignOptions& opts);

// Canonical line-oriented campaign summary (byte-identical across worker
// counts, like MarketplaceReport).
std::string ChaosCampaignReport(const ChaosCampaignResult& r);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_CLUSTER_CHAOS_H_

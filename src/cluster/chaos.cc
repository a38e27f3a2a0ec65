#include "src/cluster/chaos.h"

#include <string>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace fragvisor {
namespace {

// Fault-free horizon of the base configuration: fault instants are placed
// as fractions of it so schedules land mid-wave regardless of scale. The
// probe run is itself deterministic, so so is the derived schedule.
TimeNs ProbeHorizon(const MarketplaceOptions& base) {
  MarketplaceOptions clean = base;
  clean.faults = FaultSchedule{};
  const MarketplaceResult r = RunMarketplace(clean, 1);
  FV_CHECK_GT(r.finish_time, 0);
  return r.finish_time;
}

}  // namespace

const char* ChaosModeName(ChaosMode mode) {
  switch (mode) {
    case ChaosMode::kCrash: return "crash";
    case ChaosMode::kPartition: return "partition";
    case ChaosMode::kJitter: return "jitter";
  }
  return "?";
}

MarketplaceOptions MakeChaosRun(const MarketplaceOptions& base, ChaosMode mode, uint64_t seed) {
  const TimeNs horizon = ProbeHorizon(base);
  const int n = base.num_nodes;
  FV_CHECK_GE(n, 2);
  MarketplaceOptions run = base;
  // All schedule randomness derives from (mode, seed), independent of any
  // global RNG state.
  run.fault_seed = SplitMix64(seed ^ (static_cast<uint64_t>(mode) << 32));
  FaultSchedule& f = run.faults;
  f = FaultSchedule{};
  const uint64_t r0 = SplitMix64(run.fault_seed);
  const uint64_t r1 = SplitMix64(r0);
  const uint64_t r2 = SplitMix64(r1);
  switch (mode) {
    case ChaosMode::kCrash: {
      // First crash hits the orchestrator (node 0) mid-wave — the failover
      // tentpole; the second takes out a random lender later on.
      const TimeNs t0 = horizon * 25 / 100 + static_cast<TimeNs>(r0 % 1000) * horizon / 10000;
      const TimeNs t1 = horizon * 50 / 100 + static_cast<TimeNs>(r1 % 1000) * horizon / 10000;
      f.crashes.push_back({0, t0});
      f.crashes.push_back({1 + static_cast<int>(r2 % static_cast<uint64_t>(n - 1)), t1});
      break;
    }
    case ChaosMode::kPartition: {
      const int a = static_cast<int>(r0 % static_cast<uint64_t>(n));
      int b = static_cast<int>(r1 % static_cast<uint64_t>(n));
      if (b == a) b = (b + 1) % n;
      const TimeNs from = horizon * 30 / 100 + static_cast<TimeNs>(r2 % 1000) * horizon / 10000;
      f.partitions.push_back({a, b, from, from + horizon * 30 / 100});
      break;
    }
    case ChaosMode::kJitter: {
      f.link.drop_prob = 0.02;
      f.link.dup_prob = 0.01;
      f.link.extra_delay_max = Micros(3);
      break;
    }
  }
  return run;
}

std::vector<std::string> CheckClusterInvariants(const MarketplaceOptions& opts,
                                                const MarketplaceResult& r) {
  std::vector<std::string> v;
  const auto violate = [&v](const std::string& s) { v.push_back(s); };
  const uint64_t vms = static_cast<uint64_t>(r.vms.size());

  // Exactly-once termination: every VM completed xor failed, counts add up.
  uint64_t completed = 0;
  uint64_t failed = 0;
  for (const VmOutcome& o : r.vms) {
    if (o.completed == o.failed) {
      violate("vm " + std::to_string(o.vm) + ": completed=" + std::to_string(o.completed) +
              " failed=" + std::to_string(o.failed) + " (want exactly one)");
    }
    completed += o.completed ? 1 : 0;
    failed += o.failed ? 1 : 0;
    if (o.completed && o.finished < o.started) {
      violate("vm " + std::to_string(o.vm) + ": finished before it started");
    }
    if (o.failed && o.fail_reason == VmFailReason::kNone) {
      violate("vm " + std::to_string(o.vm) + ": failed without a reason");
    }
    if (o.completed && o.fail_reason != VmFailReason::kNone) {
      violate("vm " + std::to_string(o.vm) + ": completed with a fail reason");
    }
  }
  if (completed != r.vms_completed) {
    violate("vms_completed=" + std::to_string(r.vms_completed) + " but " +
            std::to_string(completed) + " outcomes say done");
  }
  if (failed != r.vms_failed) {
    violate("vms_failed=" + std::to_string(r.vms_failed) + " but " + std::to_string(failed) +
            " outcomes say failed");
  }
  if (completed + failed != vms) {
    violate("completed+failed=" + std::to_string(completed + failed) + " != vms=" +
            std::to_string(vms));
  }

  // Lease conservation: every book entry ever created (requested or
  // restored) left exactly one way, and the book ended empty.
  const LeaseStats& ls = r.lease;
  const uint64_t in = ls.requested.value() + ls.restored.value();
  const uint64_t out = ls.expired.value() + ls.revoked.value() + ls.released.value() +
                       ls.lost.value() + ls.dropped.value() + ls.orphaned.value() +
                       ls.failover_cleared.value();
  if (in != out) {
    violate("lease conservation: in=" + std::to_string(in) + " != out=" + std::to_string(out));
  }

  // Reclamation consistency: the orchestrator counts a reclaim only when the
  // revoke ack lands; revocations the crash machinery swallowed may exceed
  // that, never the reverse.
  if (ls.revoked.value() < r.reclaims) {
    violate("revoked=" + std::to_string(ls.revoked.value()) + " < reclaims=" +
            std::to_string(r.reclaims));
  }
  if (!r.used_fault_plan && ls.revoked.value() != r.reclaims) {
    violate("fault-free revoked=" + std::to_string(ls.revoked.value()) + " != reclaims=" +
            std::to_string(r.reclaims));
  }

  // No stranded reservations: the final drain leaves no committed slots.
  if (r.ledger_residue_slots != 0) {
    violate("ledger residue: " + std::to_string(r.ledger_residue_slots) + " committed slots");
  }

  // A fault-free run must not fail anything or fail over.
  if (!r.used_fault_plan && (r.vms_failed != 0 || r.failovers != 0 || r.nodes_died != 0)) {
    violate("fault-free run reports failures");
  }
  (void)opts;
  return v;
}

ChaosCampaignResult RunChaosCampaign(const ChaosCampaignOptions& opts) {
  FV_CHECK_GE(opts.seeds, 1);
  ChaosCampaignResult out;
  std::vector<ChaosMode> modes;
  if (opts.crash) modes.push_back(ChaosMode::kCrash);
  if (opts.partition) modes.push_back(ChaosMode::kPartition);
  if (opts.jitter) modes.push_back(ChaosMode::kJitter);
  for (const ChaosMode mode : modes) {
    for (int i = 0; i < opts.seeds; ++i) {
      const uint64_t seed = opts.seed0 + static_cast<uint64_t>(i);
      const MarketplaceOptions run_opts = MakeChaosRun(opts.base, mode, seed);
      ChaosRunResult run;
      run.mode = mode;
      run.seed = seed;
      run.result = RunMarketplace(run_opts, opts.threads);
      run.violations = CheckClusterInvariants(run_opts, run.result);
      if (opts.verify_threads > 0 && opts.verify_threads != opts.threads) {
        const MarketplaceResult again = RunMarketplace(run_opts, opts.verify_threads);
        if (MarketplaceReport(run.result) != MarketplaceReport(again)) {
          run.violations.push_back("report differs between threads=" +
                                   std::to_string(opts.threads) + " and threads=" +
                                   std::to_string(opts.verify_threads));
        }
      }
      out.total_violations += run.violations.size();
      out.runs.push_back(std::move(run));
    }
  }
  return out;
}

std::string ChaosCampaignReport(const ChaosCampaignResult& r) {
  std::string out;
  const auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  const auto u = [](uint64_t v) { return std::to_string(v); };
  line("chaos-campaign runs=" + u(r.runs.size()) + " violations=" + u(r.total_violations));
  for (const ChaosRunResult& run : r.runs) {
    const MarketplaceResult& m = run.result;
    line(std::string("run mode=") + ChaosModeName(run.mode) + " seed=" + u(run.seed) +
         " finish_ns=" + std::to_string(m.finish_time) + " digest=" + u(m.state_digest) +
         " completed=" + u(m.vms_completed) + " failed=" + u(m.vms_failed) + " failovers=" +
         u(m.failovers) + " died=" + u(m.nodes_died) + " replacements=" +
         u(m.lender_replacements) + " degradations=" + u(m.lender_degradations) +
         " violations=" + u(run.violations.size()));
    for (const std::string& viol : run.violations) {
      line("  violation: " + viol);
    }
  }
  return out;
}

}  // namespace fragvisor

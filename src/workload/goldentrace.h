// Deterministic randomized DSM trace used as a golden-stats regression and
// as the `golden` scenario kind of the versioned scenario suite.
//
// The trace drives ~30k accesses from 4 nodes over a 10k-page space through
// every protocol path (read/write faults, upgrades, waiters, prefetch,
// contextual page-table writes, live slice migration, failover reseed). Its
// counters and final simulated time were captured from the pre-radix
// hash-map implementation; the radix page table must reproduce them exactly.
// The canonical pins now live in scenarios/*.json (hash over
// GoldenTraceReport()); unit tests anchor against the same hash constants.

#ifndef FRAGVISOR_SRC_WORKLOAD_GOLDENTRACE_H_
#define FRAGVISOR_SRC_WORKLOAD_GOLDENTRACE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/mem/dsm.h"
#include "src/sim/fault_plan.h"
#include "src/sim/time.h"

namespace fragvisor {

struct GoldenTraceResult {
  uint64_t hits = 0;
  uint64_t resolved = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t invalidations = 0;
  uint64_t page_transfers = 0;
  uint64_t prefetched_pages = 0;
  uint64_t protocol_messages = 0;
  uint64_t protocol_bytes = 0;
  uint64_t migrated = 0;
  uint64_t reseeded = 0;
  uint64_t pages_checked = 0;
  TimeNs final_time = 0;
  // Fast-path counters; all zero with the default (all-off) options.
  uint64_t hint_hits = 0;
  uint64_t hint_stale = 0;
  uint64_t replica_reads = 0;
  uint64_t region_transfers = 0;
  uint64_t read_mostly_promotions = 0;
  uint64_t hold_escalations = 0;

  // Full-state equality, for run-to-run determinism assertions.
  bool operator==(const GoldenTraceResult& o) const = default;
};

// With `plan` non-null the trace runs with the fault plan attached to the
// fabric; an *empty* plan must leave every counter and the final time
// bit-identical to the plan-less run (the reliable-channel bookkeeping is
// observationally free when nothing fires). `mutate` edits the engine
// options before construction (fast-path sweeps); null runs the canonical
// all-off configuration the golden constants were captured from. With
// `snapshot_roundtrip` the engine state is serialized and loaded back at the
// round-150 quiesce point — the pinned hash proves the DSM snapshot section
// is observationally lossless mid-trace — and copied to `snapshot_out` if set.
GoldenTraceResult RunGoldenTrace(
    FaultPlan* plan = nullptr,
    const std::function<void(DsmEngine::Options&)>& mutate = nullptr,
    bool snapshot_roundtrip = false, std::string* snapshot_out = nullptr);

// Canonical, line-oriented dump of every field. Byte-compare or hash to
// compare two runs.
std::string GoldenTraceReport(const GoldenTraceResult& r);

// FNV-1a over GoldenTraceReport() — the value scenarios/*.json pins.
uint64_t GoldenTraceHash(const GoldenTraceResult& r);

// The all-off baseline pin, shared by scenarios/golden-baseline.json, the
// snapshot-roundtrip scenario (lossless by construction), and the unit-test
// anchors in dsm_radix_test / dsm_fastpath_test.
inline constexpr uint64_t kGoldenBaselineHash = 0x779f02df6c6aba6aull;

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_WORKLOAD_GOLDENTRACE_H_

// Open-loop VM arrival traces for the cluster marketplace (DESIGN.md §11).
//
// A trace is a deterministic function of ArrivalTraceOptions: a sorted list
// of VM arrivals, each with a size (vCPUs, memory) and an open-loop request
// budget its tenant will push through the cluster once admitted. Three trace
// shapes cover the load patterns the paper's marketplace argument cares
// about:
//  * poisson — memoryless FaaS-style arrivals at a constant mean rate;
//  * diurnal — a day-peak (most arrivals compressed into the front of the
//    span) followed by a sparse tail;
//  * flash   — a flash crowd: a narrow burst in the middle of an otherwise
//    Poisson span.
//
// VM sizes follow the Protean-style mix GenerateBurst uses (2-4 vCPUs
// dominate); request budgets and the remote-access fraction scale with size.

#ifndef FRAGVISOR_SRC_CLUSTER_ARRIVAL_H_
#define FRAGVISOR_SRC_CLUSTER_ARRIVAL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/fabric.h"
#include "src/sim/time.h"

namespace fragvisor {

enum class ArrivalKind : uint8_t {
  kPoisson = 0,
  kDiurnal = 1,
  kFlash = 2,
};

// Names by ArrivalKind value; also the "trace" option's spellings.
inline constexpr std::array<const char*, 3> kArrivalKindNames = {"poisson", "diurnal", "flash"};

inline const char* ArrivalKindName(ArrivalKind kind) {
  return kArrivalKindNames[static_cast<size_t>(kind)];
}

struct VmArrival {
  uint64_t vm = 0;           // tenant id, 1-based, dense
  TimeNs time = 0;           // arrival offset from the trace start
  int vcpus = 1;
  uint64_t mem_bytes = 0;
  uint64_t requests = 0;     // total open-loop request budget
  double remote_frac = 0.0;  // fraction of requests that touch borrowed memory
};

struct ArrivalTraceOptions {
  ArrivalKind kind = ArrivalKind::kPoisson;
  int vms = 100;
  TimeNs span = Millis(20);  // arrival window the trace covers
  uint64_t seed = 1;
  int max_vcpus = 8;
  uint64_t mem_per_vcpu = 1ull << 30;  // 1 GiB
  uint64_t requests_per_vcpu = 2000;
  double remote_frac = 0.35;  // mean; per-VM values jitter around it

  // The first rule these options break, naming its marketplace option key,
  // or nullptr. GenerateArrivalTrace aborts on it; MarketplaceOptions::
  // Invalid returns it.
  const char* Invalid() const;
};

// Generates the trace: `vms` arrivals sorted by (time, vm).
std::vector<VmArrival> GenerateArrivalTrace(const ArrivalTraceOptions& opts);

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_CLUSTER_ARRIVAL_H_

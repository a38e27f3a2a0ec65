#include "src/cluster/arrival.h"

#include <algorithm>
#include <utility>

#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace fragvisor {
namespace {

// Protean-style size mix: 2-4 vCPU VMs dominate, with a thin large tail.
int SampleVcpus(Rng& rng, int max_vcpus) {
  const double r = rng.NextDouble();
  int v;
  if (r < 0.15) {
    v = 1;
  } else if (r < 0.50) {
    v = 2;
  } else if (r < 0.80) {
    v = 4;
  } else if (r < 0.95) {
    v = 6;
  } else {
    v = 8;
  }
  return v < max_vcpus ? v : max_vcpus;
}

}  // namespace

const char* ArrivalTraceOptions::Invalid() const {
  const std::pair<bool, const char*> rules[] = {
      {vms < 1, "vms (trace.vms) must be at least 1"},
      {span <= 0, "span_ms (trace.span) must be above 0"},
      {max_vcpus < 1, "max_vcpus (trace.max_vcpus) must be at least 1"},
      {requests_per_vcpu == 0, "requests (trace.requests_per_vcpu) must be at least 1"},
      {!(remote_frac >= 0.0 && remote_frac <= 1.0),
       "remote_frac (trace.remote_frac) must be between 0 and 1"},
  };
  for (const auto& [broken, why] : rules) {
    if (broken) {
      return why;
    }
  }
  return nullptr;
}

std::vector<VmArrival> GenerateArrivalTrace(const ArrivalTraceOptions& opts) {
  if (const char* why = opts.Invalid()) {
    CheckFailed(__FILE__, __LINE__, why);
  }

  Rng rng(SplitMix64(opts.seed ^ 0xa441ull));
  const double span = static_cast<double>(opts.span);
  const int n = opts.vms;

  // Arrival instants, per shape. All three produce nondecreasing sequences.
  std::vector<TimeNs> times;
  times.reserve(static_cast<size_t>(n));
  switch (opts.kind) {
    case ArrivalKind::kPoisson: {
      const double mean_gap = span / static_cast<double>(n);
      double t = 0;
      for (int i = 0; i < n; ++i) {
        t += rng.Exponential(mean_gap);
        times.push_back(static_cast<TimeNs>(t));
      }
      break;
    }
    case ArrivalKind::kDiurnal: {
      // Day peak: 60% of the VMs arrive in the first 30% of the span, the
      // rest spread over the remaining 70% — two Poisson segments.
      const int peak = (n * 6) / 10;
      double t = 0;
      const double peak_gap = (span * 0.3) / static_cast<double>(peak > 0 ? peak : 1);
      for (int i = 0; i < peak; ++i) {
        t += rng.Exponential(peak_gap);
        times.push_back(static_cast<TimeNs>(t));
      }
      if (t < span * 0.3) {
        t = span * 0.3;
      }
      const int rest = n - peak;
      const double rest_gap = (span * 0.7) / static_cast<double>(rest > 0 ? rest : 1);
      for (int i = 0; i < rest; ++i) {
        t += rng.Exponential(rest_gap);
        times.push_back(static_cast<TimeNs>(t));
      }
      break;
    }
    case ArrivalKind::kFlash: {
      // Background Poisson over the span plus a flash crowd: 70% of the VMs
      // land inside a window 5% of the span wide centered at 40%.
      const int flash = (n * 7) / 10;
      const int background = n - flash;
      double t = 0;
      const double bg_gap = span / static_cast<double>(background > 0 ? background : 1);
      for (int i = 0; i < background; ++i) {
        t += rng.Exponential(bg_gap);
        times.push_back(static_cast<TimeNs>(t));
      }
      const double flash_start = span * 0.40;
      const double flash_width = span * 0.05;
      for (int i = 0; i < flash; ++i) {
        times.push_back(static_cast<TimeNs>(flash_start + rng.NextDouble() * flash_width));
      }
      std::sort(times.begin(), times.end());
      break;
    }
  }

  std::vector<VmArrival> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    VmArrival a;
    a.vm = static_cast<uint64_t>(i) + 1;
    a.time = times[static_cast<size_t>(i)];
    a.vcpus = SampleVcpus(rng, opts.max_vcpus);
    a.mem_bytes = opts.mem_per_vcpu * static_cast<uint64_t>(a.vcpus);
    a.requests = opts.requests_per_vcpu * static_cast<uint64_t>(a.vcpus);
    // Jitter the remote fraction ±25% around the mean, clamped to [0, 1].
    double rf = opts.remote_frac * (0.75 + 0.5 * rng.NextDouble());
    if (rf > 1.0) {
      rf = 1.0;
    }
    a.remote_frac = rf;
    out.push_back(a);
  }
  std::stable_sort(out.begin(), out.end(), [](const VmArrival& x, const VmArrival& y) {
    return x.time != y.time ? x.time < y.time : x.vm < y.vm;
  });
  return out;
}

}  // namespace fragvisor

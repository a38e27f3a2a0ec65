// Microbenchmark for the simulator hot paths:
//
//   1. EventLoop schedule/dispatch/cancel churn — the inner loop every
//      simulated nanosecond goes through;
//   2. DsmEngine access storm — the page-table walk every guest memory
//      access goes through, plus the full coherence protocol on misses;
//   3. Parallel-core thread sweep — the 64-node DSM coherence storm on the
//      partitioned ParallelEventLoop at 1/2/3/4/8 workers vs. the serial
//      engine, checking byte-identical reports along the way (3 workers
//      split the 64 partitions into uneven blocks of 21, 21 and 22).
//
// Results are printed as a table and written to BENCH_core_hotpath.json and
// BENCH_parallel_core.json so the events/s, faults/s, and speedup figures can
// be tracked across PRs (tools/ci.sh collects the files as build artifacts).
//
//   micro_core_hotpath [--events N] [--accesses N] [--storm-accesses N]
//                      [--out PATH] [--parallel-out PATH]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/host/cost_model.h"
#include "src/mem/dsm.h"
#include "src/net/fabric.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

double WallSeconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct EventLoopResult {
  uint64_t dispatched = 0;
  double wall_s = 0;
  double events_per_s = 0;
};

// Self-rescheduling timer mesh with cancel churn: each of 512 timers runs a
// work callback (with a capture too fat for small-buffer std::function), arms
// a timeout it cancels on the next step, and reschedules itself. This is the
// shape of the pCPU/DSM/IO event traffic the simulator generates.
EventLoopResult BenchEventLoop(uint64_t target_steps) {
  EventLoop loop;
  constexpr int kTimers = 512;
  uint64_t steps = 0;
  uint64_t blackhole = 0;
  EventId timeout[kTimers] = {};

  std::function<void(int)> step = [&](int t) {
    if (timeout[t] != kInvalidEventId) {
      loop.Cancel(timeout[t]);
    }
    timeout[t] = loop.ScheduleAfter(Micros(5), [&blackhole]() { ++blackhole; });
    if (++steps >= target_steps) {
      return;
    }
    // 40 bytes of captured state: defeats 16-byte SBO callback storage.
    const uint64_t a = steps, b = steps ^ 0x9e3779b97f4a7c15ull, c = a + b, d = a * 31;
    loop.ScheduleAfter(Nanos(500 + (t & 63)),
                       [&step, t, a, b, c, d]() { step(t + static_cast<int>((a + b + c + d) & 0)); });
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < kTimers; ++t) {
    step(t);
  }
  EventLoopResult res;
  res.dispatched = loop.Run();
  res.wall_s = WallSeconds(t0);
  res.events_per_s = static_cast<double>(res.dispatched) / res.wall_s;
  return res;
}

struct DsmStormResult {
  uint64_t accesses = 0;
  uint64_t faults = 0;
  uint64_t hits = 0;
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t invalidations = 0;
  uint64_t page_transfers = 0;
  uint64_t protocol_messages = 0;
  uint64_t protocol_bytes = 0;
  double wall_s = 0;
  double faults_per_s = 0;
  double accesses_per_s = 0;
  double sim_time_s = 0;
};

// Closed-loop access storm: 8 nodes each replay an independent deterministic
// access stream over a 128k-page space with a 4k-page hot set, 30% writes.
// Every access runs the Access/WouldHit fast path; misses run the protocol.
DsmStormResult BenchDsmStorm(uint64_t target_accesses) {
  constexpr int kNodes = 8;
  constexpr PageNum kColdPages = 1 << 17;
  constexpr PageNum kHotPages = 1 << 12;

  EventLoop loop;
  Fabric fabric(&loop, kNodes, LinkParams::InfiniBand56G());
  const CostModel costs = CostModel::Default();
  DsmEngine::Options opts;
  opts.home = 0;
  opts.num_nodes = kNodes;
  RpcLayer rpc(&loop, &fabric);
  DsmEngine dsm(&loop, &rpc, &costs, opts);
  for (int n = 0; n < kNodes; ++n) {
    dsm.SeedRange(static_cast<PageNum>(n) * (kColdPages / kNodes), kColdPages / kNodes, n);
  }

  struct Stream {
    Rng rng{1};
    uint64_t remaining = 0;
  };
  Stream streams[kNodes];
  const uint64_t per_node = target_accesses / kNodes;
  uint64_t hits = 0;
  std::function<void(int)> pump = [&](int s) {
    Stream& st = streams[s];
    while (st.remaining > 0) {
      --st.remaining;
      const bool hot = st.rng.Chance(0.5);
      const PageNum page = hot ? static_cast<PageNum>(st.rng.UniformInt(0, kHotPages - 1))
                               : static_cast<PageNum>(st.rng.UniformInt(0, kColdPages - 1));
      const bool is_write = st.rng.Chance(0.3);
      if (!dsm.Access(s, page, is_write, [&pump, s]() { pump(s); })) {
        return;  // fault in flight; resume from its completion callback
      }
      ++hits;
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (int s = 0; s < kNodes; ++s) {
    streams[s].rng = Rng(1000 + static_cast<uint64_t>(s));
    streams[s].remaining = per_node;
    pump(s);
  }
  loop.Run();

  DsmStormResult res;
  res.accesses = per_node * kNodes;
  res.hits = hits;
  res.faults = dsm.stats().total_faults();
  res.read_faults = dsm.stats().read_faults.value();
  res.write_faults = dsm.stats().write_faults.value();
  res.invalidations = dsm.stats().invalidations.value();
  res.page_transfers = dsm.stats().page_transfers.value();
  res.protocol_messages = dsm.stats().protocol_messages.value();
  res.protocol_bytes = dsm.stats().protocol_bytes.value();
  res.wall_s = WallSeconds(t0);
  res.faults_per_s = static_cast<double>(res.faults) / res.wall_s;
  res.accesses_per_s = static_cast<double>(res.accesses) / res.wall_s;
  res.sim_time_s = ToSeconds(loop.now());
  return res;
}

struct LinkLookupResult {
  uint64_t lookups = 0;
  uint64_t blackhole = 0;  // defeats dead-code elimination
  double wall_s = 0;
  double lookups_per_s = 0;
};

// Satellite to the rpc-layer link-parameter caching: the per-send
// link_params() lookup (dense per-pair table, const-ref return) measured in
// isolation over a pseudo-random pair stream, so the cached-vs-map cost delta
// stays visible across PRs.
LinkLookupResult BenchLinkParams(uint64_t target_lookups) {
  constexpr int kNodes = 64;
  EventLoop loop;
  Fabric fabric(&loop, kNodes, LinkParams::InfiniBand56G());
  LinkLookupResult res;
  res.lookups = target_lookups;
  uint64_t acc = 0;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < target_lookups; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const NodeId src = static_cast<NodeId>(x % kNodes);
    const NodeId dst = static_cast<NodeId>((x >> 8) % kNodes);
    const LinkParams& p = fabric.link_params(src, dst);
    acc += static_cast<uint64_t>(p.latency);
  }
  res.wall_s = WallSeconds(t0);
  res.blackhole = acc;
  res.lookups_per_s = static_cast<double>(target_lookups) / res.wall_s;
  return res;
}

struct ParallelSweepPoint {
  int threads = 0;  // 0 = serial EventLoop engine
  uint64_t events = 0;
  double wall_s = 0;
  double events_per_s = 0;
  double speedup_vs_serial = 0;
};

struct ParallelSweepResult {
  std::vector<ParallelSweepPoint> points;
  uint64_t barriers = 0;
  uint64_t mailbox_events = 0;
  uint64_t digest = 0;
  bool reports_identical = true;
};

// The tentpole workload: 64 nodes of DSM coherence traffic over the
// partitioned core. The serial engine (threads = 0) is the baseline; each
// parallel point must produce a byte-identical StormReport, so the sweep
// doubles as a determinism check on real protocol traffic.
ParallelSweepResult BenchParallelCore(uint64_t target_accesses) {
  StormOptions so;
  so.num_nodes = 64;
  so.streams_per_node = 4;
  so.accesses_per_stream = static_cast<int>(
      target_accesses / (static_cast<uint64_t>(so.num_nodes) * so.streams_per_node));
  if (so.accesses_per_stream < 1) {
    so.accesses_per_stream = 1;
  }

  ParallelSweepResult res;
  std::string reference_report;
  for (const int threads : {0, 1, 2, 3, 4, 8}) {
    const auto t0 = std::chrono::steady_clock::now();
    const StormResult r = RunStorm(so, threads);
    ParallelSweepPoint pt;
    pt.threads = threads;
    pt.events = r.events_dispatched;
    pt.wall_s = WallSeconds(t0);
    pt.events_per_s = static_cast<double>(r.events_dispatched) / pt.wall_s;
    if (!res.points.empty()) {
      pt.speedup_vs_serial = pt.events_per_s / res.points.front().events_per_s;
    } else {
      pt.speedup_vs_serial = 1.0;
    }
    res.points.push_back(pt);
    if (threads > 0) {
      // Thread-count determinism gate: every parallel point must match the
      // 1-worker report byte for byte. (The serial engine is excluded: the
      // full storm's cache/invalidation state is order-dependent at
      // equal-time ties, which the contract only pins per engine.)
      const std::string report = StormReport(r);
      if (reference_report.empty()) {
        reference_report = report;
        res.digest = r.state_digest;
        res.barriers = r.core.barriers;
        res.mailbox_events = r.core.mailbox_events;
      } else if (report != reference_report) {
        res.reports_identical = false;
      }
    }
  }
  return res;
}

int Main(int argc, char** argv) {
  uint64_t events = 3000000;
  uint64_t accesses = 2000000;
  uint64_t storm_accesses = 64 * 4 * 200;
  std::string out_path = "BENCH_core_hotpath.json";
  std::string parallel_out_path = "BENCH_parallel_core.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--accesses") == 0 && i + 1 < argc) {
      accesses = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--storm-accesses") == 0 && i + 1 < argc) {
      storm_accesses = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--parallel-out") == 0 && i + 1 < argc) {
      parallel_out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: micro_core_hotpath [--events N] [--accesses N] [--storm-accesses N] "
                   "[--out PATH] [--parallel-out PATH]\n");
      return 2;
    }
  }

  const EventLoopResult ev = BenchEventLoop(events);
  std::printf("event_loop: %llu events in %.3f s -> %.2f M events/s\n",
              static_cast<unsigned long long>(ev.dispatched), ev.wall_s, ev.events_per_s / 1e6);

  const LinkLookupResult links = BenchLinkParams(events);
  std::printf("link_params: %llu lookups in %.3f s -> %.2f M lookups/s\n",
              static_cast<unsigned long long>(links.lookups), links.wall_s,
              links.lookups_per_s / 1e6);

  const DsmStormResult storm = BenchDsmStorm(accesses);
  std::printf("dsm_storm:  %llu accesses (%llu faults, %llu hits) in %.3f s "
              "-> %.2f M accesses/s, %.2f k faults/s (sim time %.3f s)\n",
              static_cast<unsigned long long>(storm.accesses),
              static_cast<unsigned long long>(storm.faults),
              static_cast<unsigned long long>(storm.hits), storm.wall_s,
              storm.accesses_per_s / 1e6, storm.faults_per_s / 1e3, storm.sim_time_s);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"micro_core_hotpath\",\n"
               "  \"event_loop\": {\n"
               "    \"events\": %llu,\n"
               "    \"wall_s\": %.6f,\n"
               "    \"events_per_s\": %.1f\n"
               "  },\n"
               "  \"link_params\": {\n"
               "    \"lookups\": %llu,\n"
               "    \"wall_s\": %.6f,\n"
               "    \"lookups_per_s\": %.1f\n"
               "  },\n"
               "  \"dsm_storm\": {\n"
               "    \"accesses\": %llu,\n"
               "    \"faults\": %llu,\n"
               "    \"hits\": %llu,\n"
               "    \"read_faults\": %llu,\n"
               "    \"write_faults\": %llu,\n"
               "    \"invalidations\": %llu,\n"
               "    \"page_transfers\": %llu,\n"
               "    \"protocol_messages\": %llu,\n"
               "    \"protocol_bytes\": %llu,\n"
               "    \"wall_s\": %.6f,\n"
               "    \"faults_per_s\": %.1f,\n"
               "    \"accesses_per_s\": %.1f,\n"
               "    \"sim_time_s\": %.9f\n"
               "  }\n"
               "}\n",
               static_cast<unsigned long long>(ev.dispatched), ev.wall_s, ev.events_per_s,
               static_cast<unsigned long long>(links.lookups), links.wall_s,
               links.lookups_per_s,
               static_cast<unsigned long long>(storm.accesses),
               static_cast<unsigned long long>(storm.faults),
               static_cast<unsigned long long>(storm.hits),
               static_cast<unsigned long long>(storm.read_faults),
               static_cast<unsigned long long>(storm.write_faults),
               static_cast<unsigned long long>(storm.invalidations),
               static_cast<unsigned long long>(storm.page_transfers),
               static_cast<unsigned long long>(storm.protocol_messages),
               static_cast<unsigned long long>(storm.protocol_bytes), storm.wall_s,
               storm.faults_per_s, storm.accesses_per_s, storm.sim_time_s);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  const ParallelSweepResult sweep = BenchParallelCore(storm_accesses);
  const unsigned hw_threads = std::thread::hardware_concurrency();
  for (const ParallelSweepPoint& pt : sweep.points) {
    std::printf("parallel_core[%s]: %llu events in %.3f s -> %.2f M events/s (%.2fx serial)\n",
                pt.threads == 0 ? "serial" : std::to_string(pt.threads).c_str(),
                static_cast<unsigned long long>(pt.events), pt.wall_s, pt.events_per_s / 1e6,
                pt.speedup_vs_serial);
  }
  std::printf("parallel_core: reports %s across worker counts (%u hardware threads)\n",
              sweep.reports_identical ? "IDENTICAL" : "DIVERGED", hw_threads);
  if (!sweep.reports_identical) {
    std::fprintf(stderr, "parallel_core: determinism violation across worker counts\n");
    return 1;
  }

  f = std::fopen(parallel_out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", parallel_out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"parallel_core\",\n"
               "  \"nodes\": 64,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"barriers\": %llu,\n"
               "  \"mailbox_events\": %llu,\n"
               "  \"digest\": \"%016llx\",\n"
               "  \"reports_identical\": %s,\n"
               "  \"sweep\": [\n",
               hw_threads, static_cast<unsigned long long>(sweep.barriers),
               static_cast<unsigned long long>(sweep.mailbox_events),
               static_cast<unsigned long long>(sweep.digest),
               sweep.reports_identical ? "true" : "false");
  for (size_t i = 0; i < sweep.points.size(); ++i) {
    const ParallelSweepPoint& pt = sweep.points[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"engine\": \"%s\", \"events\": %llu, "
                 "\"wall_s\": %.6f, \"events_per_s\": %.1f, \"speedup_vs_serial\": %.3f}%s\n",
                 pt.threads, pt.threads == 0 ? "serial" : "parallel",
                 static_cast<unsigned long long>(pt.events), pt.wall_s, pt.events_per_s,
                 pt.speedup_vs_serial, i + 1 < sweep.points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", parallel_out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) { return fragvisor::Main(argc, argv); }

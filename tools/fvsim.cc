// fvsim — command-line driver for ad-hoc FragVisor-Sim experiments.
//
// The bench/ binaries regenerate the paper's figures with fixed parameters;
// this tool runs one configuration chosen on the command line, for quick
// exploration:
//
//   fvsim npb  --bench IS --system fragvisor --vcpus 4 [--scale 0.25]
//   fvsim lemp --system giantvm --vcpus 4 --processing-ms 100 --requests 40
//   fvsim faas --system overcommit --vcpus 3 --detect-ms 400
//   fvsim sweep --bench CG --systems fragvisor,giantvm,overcommit:1 --jobs 8
//   fvsim list
//
// Systems: fragvisor | giantvm | overcommit[:P]   (P = pCPUs, default 1)
//
// `sweep` runs the systems x vCPUs grid for one NPB benchmark; each cell is
// an independent simulation, computed on --jobs threads. Output order (and
// every byte of it) is independent of the job count.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/runner.h"
#include "src/cluster/marketplace.h"
#include "src/net/capture.h"
#include "src/sim/trace.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

using bench::Setup;
using bench::System;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return options.count(key) > 0; }
};

Args Parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      args.options[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      args.options[arg] = std::string(argv[++i]);
    } else {
      // Move-assign a temporary: GCC 12's -Wrestrict false-fires (PR105329)
      // on basic_string::operator=(const char*) at -O3.
      args.options[arg] = std::string("1");
    }
  }
  return args;
}

// Parses "fragvisor" | "giantvm" | "overcommit[:P]" into `setup`.
bool ParseSystem(const std::string& system, Setup* setup) {
  if (system == "fragvisor") {
    setup->system = System::kFragVisor;
  } else if (system == "giantvm") {
    setup->system = System::kGiantVm;
  } else if (system.rfind("overcommit", 0) == 0) {
    setup->system = System::kOvercommit;
    const size_t colon = system.find(':');
    setup->overcommit_pcpus = colon == std::string::npos
                                  ? 1
                                  : std::atoi(system.substr(colon + 1).c_str());
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> items;
  for (size_t pos = 0; pos <= list.size();) {
    const size_t comma = list.find(',', pos);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > pos) {
      items.push_back(list.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return items;
}

// Topology flags, shared by the storm and cluster commands:
//   --topology mesh|fat-tree  fabric shape (default mesh, the historical model)
//   --pod N                   fat-tree: nodes per pod (default 8)
//   --oversub R               fat-tree: core oversubscription ratio (default 1.0)
//   --planes K                fat-tree: ECMP core planes (default 4)
bool ParseTopologySpec(const Args& args, TopologyConfig* topo) {
  const std::string kind = args.Get("topology", "mesh");
  if (kind == "mesh") {
    *topo = TopologyConfig::Mesh();
  } else if (kind == "fat-tree") {
    *topo = TopologyConfig::FatTree(args.GetInt("pod", 8), args.GetDouble("oversub", 1.0),
                                    args.GetInt("planes", 4));
  } else {
    std::fprintf(stderr, "unknown --topology '%s' (mesh|fat-tree)\n", kind.c_str());
    return false;
  }
  return true;
}

// Fault-injection flags, shared by every workload command:
//   --fault-seed N        RNG seed for the plan's link-fault draws (default 1)
//   --fault-drop P        per-message drop probability on every link
//   --fault-dup P         per-message duplication probability
//   --fault-delay-us U    uniform extra delivery jitter in [0, U] us
//   --fault-crash n@ms[,n@ms...]      crash node n at t ms
//   --fault-restart n@ms[,n@ms...]    restart node n at t ms
//   --fault-partition a-b@ms-ms[,...] cut links a<->b during [from, until) ms
//   --fault-empty         attach an (empty) plan even with no faults
void ParseFaultSpec(const Args& args, Setup* setup) {
  bench::FaultSpec& f = setup->faults;
  f.seed = static_cast<uint64_t>(args.GetInt("fault-seed", 1));
  f.drop_prob = args.GetDouble("fault-drop", 0.0);
  f.dup_prob = args.GetDouble("fault-dup", 0.0);
  f.extra_delay_max = Micros(args.GetInt("fault-delay-us", 0));
  f.attach_empty = args.Has("fault-empty");
  for (const std::string& item : SplitList(args.Get("fault-crash", ""))) {
    int node = -1;
    double ms = 0;
    if (std::sscanf(item.c_str(), "%d@%lf", &node, &ms) != 2) {
      std::fprintf(stderr, "bad --fault-crash entry '%s' (want n@ms)\n", item.c_str());
      std::exit(2);
    }
    f.crashes.push_back({node, Millis(static_cast<TimeNs>(ms))});
  }
  for (const std::string& item : SplitList(args.Get("fault-restart", ""))) {
    int node = -1;
    double ms = 0;
    if (std::sscanf(item.c_str(), "%d@%lf", &node, &ms) != 2) {
      std::fprintf(stderr, "bad --fault-restart entry '%s' (want n@ms)\n", item.c_str());
      std::exit(2);
    }
    f.restarts.push_back({node, Millis(static_cast<TimeNs>(ms))});
  }
  for (const std::string& item : SplitList(args.Get("fault-partition", ""))) {
    int a = -1;
    int b = -1;
    double from_ms = 0;
    double until_ms = 0;
    if (std::sscanf(item.c_str(), "%d-%d@%lf-%lf", &a, &b, &from_ms, &until_ms) != 4) {
      std::fprintf(stderr, "bad --fault-partition entry '%s' (want a-b@ms-ms)\n", item.c_str());
      std::exit(2);
    }
    f.partitions.push_back({a, b, Millis(static_cast<TimeNs>(from_ms)),
                            Millis(static_cast<TimeNs>(until_ms))});
  }
}

// Reliability flags, shared by every workload command:
//   --protect             health monitoring + checkpoint/restart failover
//   --detector phi|fixed  heartbeat failure detector (default fixed)
//   --partial-recovery    surgical recovery when a lender node dies
//   --ckpt-ms T           checkpoint interval (default 100 ms)
//   --heartbeat-ms T      heartbeat interval (default 20 ms)
//   --lease-ms T          lease-protect borrowed resources, T ms duration
//   --lease-renew-ms T    lease renewal interval (default T/2)
void ParseReliabilitySpec(const Args& args, Setup* setup) {
  bench::ReliabilitySpec& rel = setup->reliability;
  rel.protect = args.Has("protect");
  const std::string detector = args.Get("detector", "fixed");
  if (detector == "phi") {
    rel.detector = FailureDetector::kPhiAccrual;
  } else if (detector != "fixed") {
    std::fprintf(stderr, "unknown --detector '%s' (phi|fixed)\n", detector.c_str());
    std::exit(2);
  }
  rel.partial_recovery = args.Has("partial-recovery");
  rel.checkpoint_interval = Millis(args.GetInt("ckpt-ms", 100));
  rel.heartbeat_interval = Millis(args.GetInt("heartbeat-ms", 20));
  if (args.Has("lease-ms")) {
    rel.leases = true;
    const int lease_ms = args.GetInt("lease-ms", 200);
    rel.lease_duration = Millis(lease_ms);
    rel.lease_renew = Millis(args.GetInt("lease-renew-ms", std::max(1, lease_ms / 2)));
  }
  if ((rel.partial_recovery || args.Has("detector")) && !rel.protect) {
    std::fprintf(stderr, "--partial-recovery/--detector need --protect\n");
    std::exit(2);
  }
}

Setup MakeSetup(const Args& args) {
  Setup setup;
  setup.vcpus = args.GetInt("vcpus", 4);
  const std::string system = args.Get("system", "fragvisor");
  if (!ParseSystem(system, &setup)) {
    std::fprintf(stderr, "unknown system '%s' (fragvisor|giantvm|overcommit[:P])\n",
                 system.c_str());
    std::exit(2);
  }
  if (args.Has("vanilla-guest")) {
    setup.guest = GuestKernelConfig::Vanilla();
  }
  if (args.Has("no-multiqueue")) {
    setup.io_multiqueue = false;
  }
  if (args.Has("no-bypass")) {
    setup.io_dsm_bypass = false;
  }
  if (args.Has("no-contextual-dsm")) {
    setup.contextual_dsm = false;
  }
  if (args.Has("rpc-coalesce")) {
    setup.rpc.coalesced_acks = true;
  }
  if (args.Has("rpc-qos")) {
    setup.rpc.qos.enabled = true;
  }
  setup.dsm_prefetch = args.GetInt("dsm-prefetch", 0);
  if (args.Has("dsm-hints")) {
    setup.dsm_owner_hints = true;
  }
  if (args.Has("dsm-replicate")) {
    setup.dsm_replicate = true;
  }
  if (args.Has("dsm-adaptive")) {
    setup.dsm_adaptive = true;
  }
  if (args.Has("dsm-rdma-read")) {
    setup.dsm_rdma_read = true;
  }
  if (args.Has("dsm-compress")) {
    setup.dsm_compress = true;
  }
  ParseFaultSpec(args, &setup);
  ParseReliabilitySpec(args, &setup);
  return setup;
}

// End-of-run traffic report: the per-kind table always prints; --msg-stats
// additionally dumps the full JSON to the given path ("-" for stdout).
void ReportMsgStats(const Args& args, const bench::MsgStatsReport& stats) {
  bench::PrintMsgStats(stats);
  if (!args.Has("msg-stats")) {
    return;
  }
  const std::string path = args.Get("msg-stats", "-");
  const std::string json = bench::MsgStatsJson(stats);
  if (path == "-" || path == "1") {
    std::fputs(json.c_str(), stdout);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write --msg-stats file '%s'\n", path.c_str());
    std::exit(2);
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("msg stats written to %s\n", path.c_str());
}

int RunNpb(const Args& args) {
  const Setup setup = MakeSetup(args);
  const NpbProfile profile =
      ScaleNpb(NpbByName(args.Get("bench", "CG")), args.GetDouble("scale", 0.25));
  double faults = 0;
  bench::FaultReport report;
  bench::MsgStatsReport msg_stats;
  bench::ReliabilityReport reliability;
  bench::DsmFastPathReport fastpath;
  const TimeNs end = bench::RunNpbMultiProcess(setup, profile,
                                               static_cast<uint64_t>(args.GetInt("seed", 1)),
                                               &faults, &report, &msg_stats, &reliability,
                                               &fastpath);
  std::printf("%s x%d on %s: %.2f ms (%.0f DSM faults/s)\n", profile.name.c_str(), setup.vcpus,
              bench::SystemName(setup.system), ToMillis(end), faults);
  if (setup.dsm_owner_hints || setup.dsm_replicate || setup.dsm_adaptive ||
      setup.dsm_prefetch > 0 || setup.dsm_rdma_read || setup.dsm_compress) {
    bench::PrintHeader("dsm fast paths");
    bench::PrintDsmFastPathReport(fastpath);
  }
  if (setup.faults.enabled()) {
    bench::PrintFaultReport(report);
  }
  if (setup.reliability.enabled()) {
    bench::PrintHeader("recovery report");
    bench::PrintReliabilityReport(reliability);
  }
  ReportMsgStats(args, msg_stats);
  return 0;
}

int RunLempCmd(const Args& args) {
  const Setup setup = MakeSetup(args);
  LempConfig lemp;
  lemp.num_php_workers = setup.vcpus - 1;
  lemp.processing_time = Millis(args.GetInt("processing-ms", 100));
  lemp.total_requests = args.GetInt("requests", 40);
  lemp.concurrency = args.GetInt("concurrency", 10);
  double faults = 0;
  bench::MsgStatsReport msg_stats;
  const double tput = bench::RunLemp(setup, lemp, &faults, &msg_stats);
  std::printf("LEMP %d vCPUs on %s, %d ms requests: %.1f req/s (%.0f DSM faults/s)\n",
              setup.vcpus, bench::SystemName(setup.system),
              args.GetInt("processing-ms", 100), tput, faults);
  ReportMsgStats(args, msg_stats);
  return 0;
}

int RunFaasCmd(const Args& args) {
  const Setup setup = MakeSetup(args);
  FaasConfig faas;
  faas.download_bytes = static_cast<uint64_t>(args.GetInt("download-mb", 4)) << 20;
  faas.extract_bytes = static_cast<uint64_t>(args.GetInt("extract-mb", 16)) << 20;
  faas.detect_compute = Millis(args.GetInt("detect-ms", 400));
  bench::MsgStatsReport msg_stats;
  const FaasPhaseStats stats = bench::RunFaas(setup, faas, nullptr, &msg_stats);
  std::printf("OpenLambda %d workers on %s: download %.1f ms, extract %.1f ms, "
              "detect %.1f ms, total %.1f ms\n",
              setup.vcpus, bench::SystemName(setup.system), stats.download_ns.mean() / 1e6,
              stats.extract_ns.mean() / 1e6, stats.detect_ns.mean() / 1e6,
              stats.total_ns.mean() / 1e6);
  ReportMsgStats(args, msg_stats);
  return 0;
}

bool WriteBinaryFile(const std::string& path, const std::string& data, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s file '%s'\n", what, path.c_str());
    return false;
  }
  const size_t n = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (n != data.size()) {
    std::fprintf(stderr, "short write to %s file '%s'\n", what, path.c_str());
    return false;
  }
  return true;
}

bool ReadBinaryFile(const std::string& path, std::string* data, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s file '%s'\n", what, path.c_str());
    return false;
  }
  data->clear();
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// The capture file's config blob: one key=value line per StormOptions field
// plus the recording engine, so `fvsim replay` can re-run the captured
// configuration with no flags.
std::string StormConfigBlob(const StormOptions& so, int threads) {
  std::string s;
  const auto kv = [&s](const char* k, const std::string& v) {
    s += k;
    s += '=';
    s += v;
    s += '\n';
  };
  kv("workload", "storm");
  kv("nodes", std::to_string(so.num_nodes));
  kv("streams", std::to_string(so.streams_per_node));
  kv("accesses", std::to_string(so.accesses_per_stream));
  kv("pages", std::to_string(so.pages_per_node));
  kv("cache_slots", std::to_string(so.cache_slots));
  kv("remote_frac", std::to_string(so.remote_frac));
  kv("write_frac", std::to_string(so.write_frac));
  kv("think_ns", std::to_string(so.think_ns));
  kv("seed", std::to_string(so.seed));
  kv("epochs", std::to_string(so.epochs));
  kv("link_latency_ns", std::to_string(so.link.latency));
  kv("link_bps", std::to_string(so.link.bytes_per_second));
  kv("jitter_ns", std::to_string(so.latency_jitter_ns));
  kv("drop_prob", std::to_string(so.drop_prob));
  kv("dup_prob", std::to_string(so.dup_prob));
  kv("extra_delay_max", std::to_string(so.extra_delay_max));
  kv("crash_node", std::to_string(so.crash_node));
  kv("crash_at", std::to_string(so.crash_at));
  kv("restart_at", std::to_string(so.restart_at));
  kv("partition_a", std::to_string(so.partition_a));
  kv("partition_b", std::to_string(so.partition_b));
  kv("partition_from", std::to_string(so.partition_from));
  kv("partition_until", std::to_string(so.partition_until));
  // Topology keys (absent from pre-topology captures; the parser's defaults
  // reconstruct the mesh those recordings ran on).
  kv("topology", so.topology.fat_tree() ? "fat-tree" : "mesh");
  kv("pod_size", std::to_string(so.topology.pod_size));
  kv("oversub", std::to_string(so.topology.oversub));
  kv("core_planes", std::to_string(so.topology.core_planes));
  kv("threads", std::to_string(threads));
  return s;
}

bool ParseStormConfigBlob(const std::string& blob, StormOptions* so, int* threads) {
  for (size_t pos = 0; pos < blob.size();) {
    const size_t nl = blob.find('\n', pos);
    const size_t end = nl == std::string::npos ? blob.size() : nl;
    const std::string line = blob.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "malformed capture config line '%s'\n", line.c_str());
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    const auto i = [&val]() { return std::atoi(val.c_str()); };
    const auto l = [&val]() { return std::atoll(val.c_str()); };
    const auto d = [&val]() { return std::atof(val.c_str()); };
    if (key == "workload") {
      if (val != "storm") {
        std::fprintf(stderr, "capture is for workload '%s', not storm\n", val.c_str());
        return false;
      }
    } else if (key == "nodes") {
      so->num_nodes = i();
    } else if (key == "streams") {
      so->streams_per_node = i();
    } else if (key == "accesses") {
      so->accesses_per_stream = i();
    } else if (key == "pages") {
      so->pages_per_node = i();
    } else if (key == "cache_slots") {
      so->cache_slots = i();
    } else if (key == "remote_frac") {
      so->remote_frac = d();
    } else if (key == "write_frac") {
      so->write_frac = d();
    } else if (key == "think_ns") {
      so->think_ns = l();
    } else if (key == "seed") {
      so->seed = static_cast<uint64_t>(l());
    } else if (key == "epochs") {
      so->epochs = i();
    } else if (key == "link_latency_ns") {
      so->link.latency = l();
    } else if (key == "link_bps") {
      so->link.bytes_per_second = d();
    } else if (key == "jitter_ns") {
      so->latency_jitter_ns = l();
    } else if (key == "drop_prob") {
      so->drop_prob = d();
    } else if (key == "dup_prob") {
      so->dup_prob = d();
    } else if (key == "extra_delay_max") {
      so->extra_delay_max = l();
    } else if (key == "crash_node") {
      so->crash_node = i();
    } else if (key == "crash_at") {
      so->crash_at = l();
    } else if (key == "restart_at") {
      so->restart_at = l();
    } else if (key == "partition_a") {
      so->partition_a = i();
    } else if (key == "partition_b") {
      so->partition_b = i();
    } else if (key == "partition_from") {
      so->partition_from = l();
    } else if (key == "partition_until") {
      so->partition_until = l();
    } else if (key == "topology") {
      if (val == "fat-tree") {
        so->topology.kind = TopologyConfig::Kind::kFatTree;
      } else if (val == "mesh") {
        so->topology.kind = TopologyConfig::Kind::kMesh;
      } else {
        std::fprintf(stderr, "unknown capture topology '%s'\n", val.c_str());
        return false;
      }
    } else if (key == "pod_size") {
      so->topology.pod_size = i();
    } else if (key == "oversub") {
      so->topology.oversub = d();
    } else if (key == "core_planes") {
      so->topology.core_planes = i();
    } else if (key == "threads") {
      *threads = i();
    } else {
      std::fprintf(stderr, "unknown capture config key '%s'\n", key.c_str());
      return false;
    }
  }
  return true;
}

// DSM coherence storm on the parallel simulation core.
//
//   fvsim storm --threads 4                      # ParallelEventLoop, 4 workers
//   fvsim storm                                  # legacy serial EventLoop
//   fvsim storm --threads 2 --report             # + canonical determinism dump
//
// The canonical report (--report) is byte-identical across --threads values
// for a fixed configuration; pipe two runs through diff to check.
//
// Snapshots and record/replay (DESIGN.md §10):
//   fvsim storm --epochs 4 --snapshot-save s.fvsnap --snapshot-epoch 2
//   fvsim storm --epochs 4 --snapshot-load s.fvsnap        # resumes epoch 3
//   fvsim storm --capture run.fvcap                        # record deliveries
//   fvsim replay --capture run.fvcap                       # re-run and diff
int RunStormCmd(const Args& args) {
  StormOptions so;
  so.num_nodes = args.GetInt("nodes", 64);
  so.streams_per_node = args.GetInt("streams", 4);
  so.accesses_per_stream = args.GetInt("accesses", 200);
  so.pages_per_node = args.GetInt("pages", 64);
  so.cache_slots = args.GetInt("cache-slots", 16);
  so.remote_frac = args.GetDouble("remote-frac", 0.7);
  so.write_frac = args.GetDouble("write-frac", 0.3);
  so.think_ns = Nanos(args.GetInt("think-ns", 2000));
  so.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  so.latency_jitter_ns = Nanos(args.GetInt("jitter-ns", 700));
  if (!ParseTopologySpec(args, &so.topology)) {
    return 2;
  }
  so.drop_prob = args.GetDouble("fault-drop", 0.0);
  so.dup_prob = args.GetDouble("fault-dup", 0.0);
  so.extra_delay_max = Micros(args.GetInt("fault-delay-us", 0));
  const std::string crash = args.Get("fault-crash", "");
  if (!crash.empty()) {
    int node = -1;
    double ms = 0;
    if (std::sscanf(crash.c_str(), "%d@%lf", &node, &ms) != 2) {
      std::fprintf(stderr, "bad --fault-crash entry '%s' (want n@ms)\n", crash.c_str());
      return 2;
    }
    so.crash_node = node;
    so.crash_at = Millis(static_cast<TimeNs>(ms));
  }
  const std::string restart = args.Get("fault-restart", "");
  if (!restart.empty()) {
    int node = -1;
    double ms = 0;
    if (std::sscanf(restart.c_str(), "%d@%lf", &node, &ms) != 2 || node != so.crash_node) {
      std::fprintf(stderr, "bad --fault-restart entry '%s' (want n@ms, same n as crash)\n",
                   restart.c_str());
      return 2;
    }
    so.restart_at = Millis(static_cast<TimeNs>(ms));
  }
  const std::string cut = args.Get("fault-partition", "");
  if (!cut.empty()) {
    int a = -1;
    int b = -1;
    double from_ms = 0;
    double until_ms = 0;
    if (std::sscanf(cut.c_str(), "%d-%d@%lf-%lf", &a, &b, &from_ms, &until_ms) != 4) {
      std::fprintf(stderr, "bad --fault-partition entry '%s' (want a-b@ms-ms)\n", cut.c_str());
      return 2;
    }
    so.partition_a = a;
    so.partition_b = b;
    so.partition_from = Millis(static_cast<TimeNs>(from_ms));
    so.partition_until = Millis(static_cast<TimeNs>(until_ms));
  }

  so.epochs = args.GetInt("epochs", 1);

  const int threads = args.GetInt("threads", 0);
  StormRunConfig cfg;
  std::string snapshot_out;
  if (args.Has("snapshot-save")) {
    cfg.snapshot_out = &snapshot_out;
    cfg.snapshot_epoch = args.GetInt("snapshot-epoch", so.epochs);
  }
  std::string snapshot_in;
  if (args.Has("snapshot-load")) {
    if (!ReadBinaryFile(args.Get("snapshot-load", ""), &snapshot_in, "snapshot")) {
      return 2;
    }
    cfg.snapshot_in = &snapshot_in;
  }
  std::string load_error;
  cfg.error = &load_error;
  std::unique_ptr<CaptureLog> capture;
  if (args.Has("capture")) {
    capture = std::make_unique<CaptureLog>(so.num_nodes);
    cfg.capture = capture.get();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const StormResult r = RunStormEx(so, threads, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (!load_error.empty()) {
    std::fprintf(stderr, "snapshot load failed: %s\n", load_error.c_str());
    return 2;
  }
  if (cfg.snapshot_out != nullptr) {
    if (snapshot_out.empty()) {
      std::fprintf(stderr, "no snapshot was taken (is --snapshot-epoch within --epochs?)\n");
      return 2;
    }
    if (!WriteBinaryFile(args.Get("snapshot-save", ""), snapshot_out, "snapshot")) {
      return 2;
    }
    std::printf("snapshot (%zu bytes, epoch %d) written to %s\n", snapshot_out.size(),
                cfg.snapshot_epoch, args.Get("snapshot-save", "").c_str());
  }
  if (capture != nullptr) {
    const std::string data = capture->Serialize(StormConfigBlob(so, threads));
    if (!WriteBinaryFile(args.Get("capture", ""), data, "capture")) {
      return 2;
    }
    std::printf("capture (%llu deliveries, %zu bytes) written to %s\n",
                static_cast<unsigned long long>(capture->total_records()), data.size(),
                args.Get("capture", "").c_str());
  }

  std::printf("storm %d nodes x %d streams on %s: %.2f ms simulated, %llu events "
              "(%.0f events/s wall), digest %016llx\n",
              so.num_nodes, so.streams_per_node,
              threads > 0 ? (std::string("parallel[") + std::to_string(threads) + "]").c_str()
                          : "serial",
              ToMillis(r.finish_time), static_cast<unsigned long long>(r.events_dispatched),
              wall_s > 0 ? static_cast<double>(r.events_dispatched) / wall_s : 0.0,
              static_cast<unsigned long long>(r.state_digest));
  if (so.topology.fat_tree()) {
    std::printf("  topology fat-tree: pods of %d, oversub %.2f, %d core planes\n",
                so.topology.pod_size, so.topology.oversub, so.topology.core_planes);
  }
  std::printf("  remote reads %llu, writes %llu, cache hits %llu, invalidations %llu, "
              "failures %llu\n",
              static_cast<unsigned long long>(r.totals.remote_reads),
              static_cast<unsigned long long>(r.totals.remote_writes),
              static_cast<unsigned long long>(r.totals.cache_hits),
              static_cast<unsigned long long>(r.totals.invalidations),
              static_cast<unsigned long long>(r.totals.failures));
  if (r.used_fault_plan) {
    std::printf("  faults: %llu dropped, %llu duplicated, %llu delayed\n",
                static_cast<unsigned long long>(r.faults.messages_dropped.value()),
                static_cast<unsigned long long>(r.faults.messages_duplicated.value()),
                static_cast<unsigned long long>(r.faults.messages_delayed.value()));
  }

  if (threads > 0) {
    // Parallelism report: how the run decomposed into conservative windows.
    const ParallelEventLoop::RunStats& c = r.core;
    uint64_t part_min = ~0ull;
    uint64_t part_max = 0;
    uint64_t part_sum = 0;
    for (const uint64_t e : c.events_per_partition) {
      part_min = std::min(part_min, e);
      part_max = std::max(part_max, e);
      part_sum += e;
    }
    const double part_mean = c.events_per_partition.empty()
                                 ? 0.0
                                 : static_cast<double>(part_sum) /
                                       static_cast<double>(c.events_per_partition.size());
    std::printf("parallel core report (%d partitions, %d workers):\n",
                static_cast<int>(c.events_per_partition.size()), threads);
    std::printf("  barriers           %llu (%.1f events/window)\n",
                static_cast<unsigned long long>(c.barriers),
                c.barriers > 0 ? static_cast<double>(c.events_dispatched) /
                                     static_cast<double>(c.barriers)
                               : 0.0);
    std::printf("  horizon advance    mean %.0f ns, min %.0f, max %.0f\n",
                c.horizon_width_ns.mean(), c.horizon_width_ns.min(), c.horizon_width_ns.max());
    std::printf("  events/partition   min %llu, mean %.1f, max %llu\n",
                static_cast<unsigned long long>(part_min == ~0ull ? 0 : part_min), part_mean,
                static_cast<unsigned long long>(part_max));
    std::printf("  mailbox deliveries %llu cross-partition events\n",
                static_cast<unsigned long long>(c.mailbox_events));
    std::printf("  cross cancels      %llu routed, %llu applied, %llu late\n",
                static_cast<unsigned long long>(c.cross_cancels_routed),
                static_cast<unsigned long long>(c.cross_cancels_applied),
                static_cast<unsigned long long>(c.cross_cancels_late));
  }

  if (args.Has("report")) {
    const std::string path = args.Get("report", "-");
    const std::string report = StormReport(r);
    if (path == "-" || path == "1") {
      std::fputs(report.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write --report file '%s'\n", path.c_str());
        return 2;
      }
      std::fputs(report.c_str(), f);
      std::fclose(f);
      std::printf("storm report written to %s\n", path.c_str());
    }
  }
  return 0;
}

// Multi-tenant cluster marketplace on the parallel core (DESIGN.md §11).
//
//   fvsim cluster --nodes 64 --vms 100 --trace poisson --threads 4
//   fvsim cluster --trace flash --policy harvest --report
//
// The canonical report (--report) is byte-identical across --threads values
// for a fixed configuration. Snapshots follow the storm command's shape:
//   fvsim cluster --epochs 2 --snapshot-save s.fvsnap --snapshot-epoch 1
//   fvsim cluster --epochs 2 --snapshot-load s.fvsnap
int RunClusterCmd(const Args& args) {
  MarketplaceOptions mo;
  mo.num_nodes = args.GetInt("nodes", 64);
  mo.vcpus_per_node = args.GetInt("vcpus-per-node", 8);
  mo.mem_per_node = static_cast<uint64_t>(args.GetInt("mem-gb", 32)) << 30;
  mo.trace.vms = args.GetInt("vms", 100);
  if (!ParseArrivalKind(args.Get("trace", "poisson"), &mo.trace.kind)) {
    std::fprintf(stderr, "unknown --trace '%s' (poisson|diurnal|flash)\n",
                 args.Get("trace", "poisson").c_str());
    return 2;
  }
  mo.trace.span = Millis(args.GetInt("span-ms", 20));
  mo.trace.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  mo.trace.max_vcpus = args.GetInt("max-vcpus", 8);
  mo.trace.mem_per_vcpu = static_cast<uint64_t>(args.GetInt("mem-per-vcpu-mb", 1024)) << 20;
  mo.trace.requests_per_vcpu = static_cast<uint64_t>(args.GetInt("requests", 2000));
  mo.trace.remote_frac = args.GetDouble("remote-frac", 0.35);
  mo.policy = args.Get("policy", "fragbff");
  mo.epochs = args.GetInt("epochs", 1);
  mo.reclamation = !args.Has("no-reclaim");
  mo.think_ns = Nanos(args.GetInt("think-ns", 1000));
  mo.service_ns = Nanos(args.GetInt("service-ns", 4000));
  mo.page_service_ns = Nanos(args.GetInt("page-service-ns", 2000));
  mo.qos = args.Has("rpc-qos");
  mo.coalesced_acks = args.Has("rpc-coalesce");
  mo.latency_jitter_ns = Nanos(args.GetInt("jitter-ns", 700));
  if (!ParseTopologySpec(args, &mo.topology)) {
    return 2;
  }
  mo.rdma_read = args.Has("dsm-rdma-read");
  mo.compress = args.Has("dsm-compress");

  // Fault injection + failover (DESIGN.md §12): stochastic link faults plus
  // scheduled crash/restart/partition transitions.
  mo.faults.seed = static_cast<uint64_t>(args.GetInt("fault-seed", 1));
  mo.faults.drop_prob = args.GetDouble("fault-drop", 0.0);
  mo.faults.dup_prob = args.GetDouble("fault-dup", 0.0);
  mo.faults.extra_delay_max = Micros(args.GetInt("fault-jitter-us", 0));
  for (const std::string& entry : SplitList(args.Get("fault-crash", ""))) {
    int node = -1;
    double ms = 0;
    if (std::sscanf(entry.c_str(), "%d@%lf", &node, &ms) != 2) {
      std::fprintf(stderr, "bad --fault-crash entry '%s' (want n@ms)\n", entry.c_str());
      return 2;
    }
    mo.faults.crashes.push_back({node, Millis(static_cast<TimeNs>(ms))});
  }
  for (const std::string& entry : SplitList(args.Get("fault-restart", ""))) {
    int node = -1;
    double ms = 0;
    if (std::sscanf(entry.c_str(), "%d@%lf", &node, &ms) != 2) {
      std::fprintf(stderr, "bad --fault-restart entry '%s' (want n@ms)\n", entry.c_str());
      return 2;
    }
    mo.faults.restarts.push_back({node, Millis(static_cast<TimeNs>(ms))});
  }
  for (const std::string& entry : SplitList(args.Get("fault-partition", ""))) {
    int a = -1;
    int b = -1;
    double from_ms = 0;
    double until_ms = 0;
    if (std::sscanf(entry.c_str(), "%d-%d@%lf-%lf", &a, &b, &from_ms, &until_ms) != 4) {
      std::fprintf(stderr, "bad --fault-partition entry '%s' (want a-b@ms-ms)\n", entry.c_str());
      return 2;
    }
    mo.faults.partitions.push_back({a, b, Millis(static_cast<TimeNs>(from_ms)),
                                    Millis(static_cast<TimeNs>(until_ms))});
  }
  const int threads = args.GetInt("threads", 1);

  MarketplaceRunConfig cfg;
  std::string snapshot_out;
  if (args.Has("snapshot-save")) {
    cfg.snapshot_out = &snapshot_out;
    cfg.snapshot_epoch = args.GetInt("snapshot-epoch", mo.epochs);
  }
  std::string snapshot_in;
  if (args.Has("snapshot-load")) {
    if (!ReadBinaryFile(args.Get("snapshot-load", ""), &snapshot_in, "snapshot")) {
      return 2;
    }
    cfg.snapshot_in = &snapshot_in;
  }
  std::string load_error;
  cfg.error = &load_error;

  const auto wall_start = std::chrono::steady_clock::now();
  const MarketplaceResult r = RunMarketplaceEx(mo, threads, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (!load_error.empty()) {
    std::fprintf(stderr, "snapshot load failed: %s\n", load_error.c_str());
    return 2;
  }
  if (cfg.snapshot_out != nullptr) {
    if (snapshot_out.empty()) {
      std::fprintf(stderr, "no snapshot was taken (is --snapshot-epoch within --epochs?)\n");
      return 2;
    }
    if (!WriteBinaryFile(args.Get("snapshot-save", ""), snapshot_out, "snapshot")) {
      return 2;
    }
    std::printf("snapshot (%zu bytes, wave %d) written to %s\n", snapshot_out.size(),
                cfg.snapshot_epoch, args.Get("snapshot-save", "").c_str());
  }

  std::printf("cluster %d nodes x %d vms (%s, %s): %.2f ms simulated, %llu events "
              "(%.0f events/s wall), digest %016llx\n",
              mo.num_nodes, mo.trace.vms, ArrivalKindName(mo.trace.kind), mo.policy.c_str(),
              ToMillis(r.finish_time), static_cast<unsigned long long>(r.events_dispatched),
              wall_s > 0 ? static_cast<double>(r.events_dispatched) / wall_s : 0.0,
              static_cast<unsigned long long>(r.state_digest));
  if (mo.topology.fat_tree() || mo.rdma_read || mo.compress) {
    std::printf("  transport:%s%s%s\n",
                mo.topology.fat_tree()
                    ? (std::string(" fat-tree pods=") + std::to_string(mo.topology.pod_size) +
                       " oversub=" + std::to_string(mo.topology.oversub) +
                       " planes=" + std::to_string(mo.topology.core_planes))
                          .c_str()
                    : "",
                mo.rdma_read ? " rdma-read" : "", mo.compress ? " compress" : "");
  }
  std::printf("  placement: %llu whole, %llu aggregate, %llu delayed, %llu reclaims, "
              "%llu completed\n",
              static_cast<unsigned long long>(r.placed_single),
              static_cast<unsigned long long>(r.placed_aggregate),
              static_cast<unsigned long long>(r.delayed),
              static_cast<unsigned long long>(r.reclaims),
              static_cast<unsigned long long>(r.vms_completed));
  std::printf("  requests: %llu local, %llu remote; latency p50 %.1f us, p99 %.1f us\n",
              static_cast<unsigned long long>(r.totals.local_requests),
              static_cast<unsigned long long>(r.totals.remote_requests),
              r.latency.Percentile(50) / 1e3, r.latency.Percentile(99) / 1e3);
  std::printf("  efficiency: consolidation %.3f mean / %.3f final, stranded %.1f mean "
              "slots\n",
              r.consolidation.MeanValue(),
              r.consolidation.empty() ? 0.0 : r.consolidation.points().back().second,
              r.stranded.MeanValue());
  if (r.used_fault_plan) {
    std::printf("  faults: %llu dropped, %llu duplicated, %llu delayed, %llu crashes, "
                "%llu restarts, %llu cuts, %llu heals\n",
                static_cast<unsigned long long>(r.faults.messages_dropped.value()),
                static_cast<unsigned long long>(r.faults.messages_duplicated.value()),
                static_cast<unsigned long long>(r.faults.messages_delayed.value()),
                static_cast<unsigned long long>(r.faults.node_crashes.value()),
                static_cast<unsigned long long>(r.faults.node_restarts.value()),
                static_cast<unsigned long long>(r.faults.partitions_cut.value()),
                static_cast<unsigned long long>(r.faults.partitions_healed.value()));
    std::printf("  retry: %llu retransmits, %llu timeouts, %llu send failures, "
                "%llu dups suppressed\n",
                static_cast<unsigned long long>(r.retry.retransmits.total()),
                static_cast<unsigned long long>(r.retry.timeouts.total()),
                static_cast<unsigned long long>(r.retry.send_failures.total()),
                static_cast<unsigned long long>(r.retry.dups_suppressed.total()));
    std::printf("  chaos: %llu failovers, %llu nodes died, %llu vms failed, "
                "%llu replacements, %llu degradations, %llu journal records, "
                "%llu late dones\n",
                static_cast<unsigned long long>(r.failovers),
                static_cast<unsigned long long>(r.nodes_died),
                static_cast<unsigned long long>(r.vms_failed),
                static_cast<unsigned long long>(r.lender_replacements),
                static_cast<unsigned long long>(r.lender_degradations),
                static_cast<unsigned long long>(r.journal_records),
                static_cast<unsigned long long>(r.late_dones));
    if (r.detection_ns.count() > 0) {
      std::printf("  failover: detect p50 %.1f us / p99 %.1f us",
                  r.detection_ns.Percentile(50) / 1e3, r.detection_ns.Percentile(99) / 1e3);
      if (r.recovery_ns.count() > 0) {
        std::printf(", recover p50 %.1f us / p99 %.1f us",
                    r.recovery_ns.Percentile(50) / 1e3, r.recovery_ns.Percentile(99) / 1e3);
      }
      std::printf("\n");
    }
  }

  if (args.Has("report")) {
    const std::string path = args.Get("report", "-");
    const std::string report = MarketplaceReport(r);
    if (path == "-" || path == "1") {
      std::fputs(report.c_str(), stdout);
    } else {
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write --report file '%s'\n", path.c_str());
        return 2;
      }
      std::fputs(report.c_str(), f);
      std::fclose(f);
      std::printf("cluster report written to %s\n", path.c_str());
    }
  }
  return 0;
}

// Re-runs a captured configuration and diffs the fresh delivery stream
// against the recording, shredcap-style: exit 0 and "zero diffs" when the
// fabric commits byte-identical deliveries, otherwise the first mismatched
// delivery (time, src, dst, kind, payload hash) and exit 1.
//
//   fvsim replay --capture run.fvcap [--threads N]
//
// --threads overrides the recorded worker count — legal because the capture
// order is worker-count-invariant; the engine KIND still comes from the
// recording (0 stays serial, >=1 stays parallel).
int RunReplayCmd(const Args& args) {
  const std::string path = args.Get("capture", "");
  if (path.empty()) {
    std::fprintf(stderr, "replay needs --capture FILE\n");
    return 2;
  }
  std::string data;
  if (!ReadBinaryFile(path, &data, "capture")) {
    return 2;
  }
  std::string blob;
  std::vector<CaptureRecord> expected;
  std::string error;
  if (!CaptureLog::Deserialize(data, &blob, &expected, &error)) {
    std::fprintf(stderr, "cannot load capture '%s': %s\n", path.c_str(), error.c_str());
    return 2;
  }
  StormOptions so;
  int recorded_threads = 0;
  if (!ParseStormConfigBlob(blob, &so, &recorded_threads)) {
    return 2;
  }
  int threads = args.GetInt("threads", recorded_threads);
  if ((threads > 0) != (recorded_threads > 0)) {
    std::fprintf(stderr, "capture was recorded on the %s engine; --threads must stay %s\n",
                 recorded_threads > 0 ? "parallel" : "serial",
                 recorded_threads > 0 ? ">= 1" : "0");
    return 2;
  }

  CaptureLog live(so.num_nodes);
  StormRunConfig cfg;
  cfg.capture = &live;
  RunStormEx(so, threads, cfg);
  const std::vector<CaptureRecord> actual = live.Canonical();

  const int64_t diverge = CaptureDiverge(expected, actual);
  if (diverge < 0) {
    std::printf("replay: %zu deliveries, zero diffs\n", actual.size());
    return 0;
  }
  const size_t at = static_cast<size_t>(diverge);
  std::printf("replay: DIVERGED at delivery %lld of %zu\n", static_cast<long long>(diverge),
              expected.size());
  std::printf("  recorded: %s\n", at < expected.size()
                                      ? CaptureLog::Describe(expected[at]).c_str()
                                      : "(absent — live run committed extra deliveries)");
  std::printf("  live:     %s\n", at < actual.size()
                                      ? CaptureLog::Describe(actual[at]).c_str()
                                      : "(absent — live run ended early)");
  return 1;
}

int RunSweep(const Args& args) {
  const NpbProfile profile =
      ScaleNpb(NpbByName(args.Get("bench", "CG")), args.GetDouble("scale", 0.25));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const int vcpus_min = args.GetInt("vcpus-min", 2);
  const int vcpus_max = args.GetInt("vcpus-max", 4);

  std::vector<std::string> systems;
  std::string list = args.Get("systems", "fragvisor,giantvm,overcommit:1,overcommit:2");
  for (size_t pos = 0; pos <= list.size();) {
    const size_t comma = list.find(',', pos);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > pos) {
      systems.push_back(list.substr(pos, end - pos));
    }
    pos = end + 1;
  }

  std::printf("%s sweep (scale %.2f, seed %llu)\n", profile.name.c_str(),
              args.GetDouble("scale", 0.25), static_cast<unsigned long long>(seed));
  bench::PrintRow({"system", "vCPUs", "time(ms)", "faults/s"}, 14);

  bench::ParallelRunner runner(args.GetInt("jobs", 1));
  for (const std::string& system : systems) {
    Setup base;
    if (!ParseSystem(system, &base)) {
      std::fprintf(stderr, "unknown system '%s' (fragvisor|giantvm|overcommit[:P])\n",
                   system.c_str());
      return 2;
    }
    for (int vcpus = vcpus_min; vcpus <= vcpus_max; ++vcpus) {
      runner.Submit([setup = base, system, vcpus, profile, seed]() mutable {
        setup.vcpus = vcpus;
        double faults = 0;
        const TimeNs end = bench::RunNpbMultiProcess(setup, profile, seed, &faults);
        return bench::FormatRow(
            {system, std::to_string(vcpus), bench::Fmt(ToMillis(end)), bench::Fmt(faults, 0)},
            14);
      });
    }
  }
  runner.Finish();
  return 0;
}

int List() {
  std::printf("commands:\n");
  std::printf("  npb   --bench <name> --system <sys> --vcpus N [--scale F] [--seed N]\n");
  std::printf("  lemp  --system <sys> --vcpus N [--processing-ms T] [--requests N]\n");
  std::printf("  faas  --system <sys> --vcpus N [--detect-ms T] [--download-mb M]\n");
  std::printf("  sweep --bench <name> [--systems a,b,...] [--vcpus-min N] [--vcpus-max N]\n");
  std::printf("        [--scale F] [--seed N] [--jobs N]\n");
  std::printf("  storm [--threads N] [--nodes N] [--streams N] [--accesses N] [--pages N]\n");
  std::printf("        [--cache-slots N] [--remote-frac F] [--write-frac F] [--think-ns T]\n");
  std::printf("        [--jitter-ns T] [--seed N] [--epochs N] [--report] [fault flags]\n");
  std::printf("        [--topology mesh|fat-tree --pod N --oversub R --planes K]\n");
  std::printf("        [--snapshot-save F --snapshot-epoch K] [--snapshot-load F]\n");
  std::printf("        [--capture F]\n");
  std::printf("  cluster [--nodes N] [--vms M] [--trace poisson|diurnal|flash] [--threads N]\n");
  std::printf("        [--policy fragbff|harvest] [--epochs N] [--seed N] [--span-ms T]\n");
  std::printf("        [--vcpus-per-node N] [--mem-gb G] [--max-vcpus N] [--requests N]\n");
  std::printf("        [--mem-per-vcpu-mb M] [--remote-frac F] [--no-reclaim] [--rpc-qos]\n");
  std::printf("        [--rpc-coalesce] [--jitter-ns T] [--report [PATH]]\n");
  std::printf("        [--topology mesh|fat-tree --pod N --oversub R --planes K]\n");
  std::printf("        [--dsm-rdma-read] [--dsm-compress]\n");
  std::printf("        [--snapshot-save F --snapshot-epoch K] [--snapshot-load F]\n");
  std::printf("        [--fault-seed N] [--fault-drop P] [--fault-dup P] [--fault-jitter-us U]\n");
  std::printf("        [--fault-crash n@ms,...] [--fault-restart n@ms,...]\n");
  std::printf("        [--fault-partition a-b@ms-ms,...]\n");
  std::printf("  replay --capture F [--threads N]\n");
  std::printf("  list\n\n");
  std::printf("systems: fragvisor | giantvm | overcommit[:pcpus]\n");
  std::printf("flags:   --vanilla-guest --no-multiqueue --no-bypass --no-contextual-dsm\n");
  std::printf("rpc:     --rpc-coalesce (multicast ack coalescing)\n");
  std::printf("         --rpc-qos (weighted deficit link scheduler)\n");
  std::printf("         --msg-stats [PATH] (per-kind traffic JSON; '-' = stdout)\n");
  std::printf("dsm:     --dsm-prefetch N (sequential read prefetch depth)\n");
  std::printf("         --dsm-hints (owner-hint cache: direct-to-owner faults)\n");
  std::printf("         --dsm-replicate (read-mostly replication)\n");
  std::printf("         --dsm-adaptive (adaptive transfer granularity + hold)\n");
  std::printf("         --dsm-rdma-read (one-sided RDMA-read page pulls)\n");
  std::printf("         --dsm-compress (compressed + delta-diffed page transfers)\n");
  std::printf("faults:  --fault-seed N --fault-drop P --fault-dup P --fault-delay-us U\n");
  std::printf("         --fault-crash n@ms[,..] --fault-restart n@ms[,..]\n");
  std::printf("         --fault-partition a-b@ms-ms[,..] --fault-empty\n");
  std::printf("protect: --protect (heartbeats + checkpoint/restart; npb only)\n");
  std::printf("         --detector phi|fixed (gray-failure-aware vs miss counter)\n");
  std::printf("         --partial-recovery (surgical lender-death recovery)\n");
  std::printf("         --ckpt-ms T --heartbeat-ms T\n");
  std::printf("leases:  --lease-ms T [--lease-renew-ms T] (lease borrowed resources)\n");
  std::printf("threads: --threads N on storm/cluster is the parallel core's worker count\n\n");
  std::printf("NPB benchmarks:");
  for (const NpbProfile& p : NpbSuite()) {
    std::printf(" %s", p.name.c_str());
  }
  std::printf("\nOMP profiles:  ");
  for (const OmpProfile& p : OmpSuite()) {
    std::printf(" %s", p.name.c_str());
  }
  std::printf("\n");
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.command == "npb") {
    return RunNpb(args);
  }
  if (args.command == "lemp") {
    return RunLempCmd(args);
  }
  if (args.command == "faas") {
    return RunFaasCmd(args);
  }
  if (args.command == "storm") {
    return RunStormCmd(args);
  }
  if (args.command == "cluster") {
    return RunClusterCmd(args);
  }
  if (args.command == "replay") {
    return RunReplayCmd(args);
  }
  if (args.command == "sweep") {
    return RunSweep(args);
  }
  if (args.command == "list" || args.command.empty()) {
    return List();
  }
  std::fprintf(stderr, "unknown command '%s'; try 'fvsim list'\n", args.command.c_str());
  return 2;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) { return fragvisor::Main(argc, argv); }

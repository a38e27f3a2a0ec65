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
//
// Flags are "--key value", "--key=value" or a bare "--key" (value 1); the
// next argument is the value unless it starts with "--". A '-' in a key
// reads as '_'. storm and cluster take every key of their options struct
// (`fvsim list` prints them with their defaults). Every command refuses a
// malformed value or a key it does not read, before it starts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "bench/runner.h"
#include "src/cluster/marketplace.h"
#include "src/net/capture.h"
#include "src/sim/options_text.h"
#include "src/sim/trace.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

using bench::Setup;
using bench::System;

// argv[2..] into `kv`, by the flag rules above.
bool ParseArgs(int argc, char** argv, KeyValues* kv) {
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      return false;
    }
    key.erase(0, 2);
    std::string value = "1";
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      // Move-assign a temporary: GCC 12's -Wrestrict false-fires (PR105329)
      // on basic_string::operator=(const char*) at -O3.
      value = std::string(argv[++i]);
    }
    std::replace(key.begin(), key.end(), '-', '_');
    kv->Set(std::move(key), std::move(value));
  }
  return true;
}

// Refuses a command's flags (malformed value, unread key) before it runs.
bool CheckArgs(const KeyValues& kv) {
  std::string error;
  if (kv.Check(&error)) {
    return true;
  }
  std::fprintf(stderr, "fvsim: %s\n", error.c_str());
  return false;
}

// Refuses storm or cluster options that break a rule of their struct.
template <typename Options>
bool CheckOptions(const Options& opts) {
  if (const char* why = opts.Invalid()) {
    std::fprintf(stderr, "fvsim: %s\n", why);
    return false;
  }
  return true;
}

// Parses "fragvisor" | "giantvm" | "overcommit[:P]" (P >= 1) into `setup`.
bool ParseSystem(const std::string& system, Setup* setup) {
  constexpr std::string_view kPrefix = "overcommit:";
  int pcpus = 1;
  if (system == "fragvisor") {
    setup->system = System::kFragVisor;
  } else if (system == "giantvm") {
    setup->system = System::kGiantVm;
  } else if (system == "overcommit" ||
             (system.starts_with(kPrefix) &&
              options_text::FromChars(std::string_view(system).substr(kPrefix.size()), &pcpus) &&
              pcpus >= 1)) {
    setup->system = System::kOvercommit;
    setup->overcommit_pcpus = pcpus;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> SplitList(const std::string& list, char sep = ',') {
  std::vector<std::string> items;
  for (size_t pos = 0; pos <= list.size();) {
    const size_t end = std::min(list.find(sep, pos), list.size());
    if (end > pos) {
      items.push_back(list.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return items;
}

// Reliability flags, shared by every workload command:
//   --protect             health monitoring + checkpoint/restart failover
//   --detector phi|fixed  heartbeat failure detector (default fixed)
//   --partial-recovery    surgical recovery when a lender node dies
//   --ckpt-ms T           checkpoint interval (default 100 ms)
//   --heartbeat-ms T      heartbeat interval (default 20 ms)
//   --lease-ms T          lease-protect borrowed resources, T ms duration
//   --lease-renew-ms T    lease renewal interval (default T/2)
void ParseReliabilitySpec(KeyValues& kv, Setup* setup) {
  bench::ReliabilitySpec& rel = setup->reliability;
  rel.protect = kv.Get("protect", false);
  const std::string detector = kv.Get<std::string>("detector", "fixed");
  if (detector == "phi") {
    rel.detector = FailureDetector::kPhiAccrual;
  } else if (detector != "fixed") {
    std::fprintf(stderr, "unknown --detector '%s' (phi|fixed)\n", detector.c_str());
    std::exit(2);
  }
  rel.partial_recovery = kv.Get("partial_recovery", false);
  rel.checkpoint_interval = Millis(kv.Get("ckpt_ms", 100));
  rel.heartbeat_interval = Millis(kv.Get("heartbeat_ms", 20));
  if (kv.Has("lease_ms")) {
    rel.leases = true;
    const int lease_ms = kv.Get("lease_ms", 200);
    rel.lease_duration = Millis(lease_ms);
    rel.lease_renew = Millis(kv.Get("lease_renew_ms", std::max(1, lease_ms / 2)));
  }
  if ((rel.partial_recovery || kv.Has("detector")) && !rel.protect) {
    std::fprintf(stderr, "--partial-recovery/--detector need --protect\n");
    std::exit(2);
  }
}

// The flags of npb, lemp and faas. The fault keys are FaultSchedule's, as
// on storm and cluster.
Setup MakeSetup(KeyValues& kv) {
  Setup setup;
  kv.Read("vcpus", setup.vcpus);
  const std::string system = kv.Get<std::string>("system", "fragvisor");
  if (!ParseSystem(system, &setup)) {
    std::fprintf(stderr, "unknown system '%s' (fragvisor|giantvm|overcommit[:P])\n",
                 system.c_str());
    std::exit(2);
  }
  if (kv.Get("vanilla_guest", false)) {
    setup.guest = GuestKernelConfig::Vanilla();
  }
  setup.io_multiqueue = !kv.Get("no_multiqueue", false);
  setup.io_dsm_bypass = !kv.Get("no_bypass", false);
  setup.contextual_dsm = !kv.Get("no_contextual_dsm", false);
  kv.Read("rpc_coalesce", setup.rpc.coalesced_acks);
  kv.Read("rpc_qos", setup.rpc.qos.enabled);
  kv.Read("dsm_prefetch", setup.dsm_prefetch);
  kv.Read("dsm_hints", setup.dsm_owner_hints);
  kv.Read("dsm_replicate", setup.dsm_replicate);
  kv.Read("dsm_adaptive", setup.dsm_adaptive);
  kv.Read("dsm_rdma_read", setup.dsm_rdma_read);
  kv.Read("dsm_compress", setup.dsm_compress);
  kv.Read("fault_seed", setup.faults.seed);
  kv.Read("fault_empty", setup.faults.attach_empty);
  ReadOptions(kv, setup.faults.schedule);
  ParseReliabilitySpec(kv, &setup);
  return setup;
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

// Writes a --report or --msg-stats text to `path`; "-" (or the bare flag) is
// stdout.
bool WriteOutput(const std::string& path, const std::string& text, const char* what) {
  if (path == "-" || path == "1") {
    std::fputs(text.c_str(), stdout);
    return true;
  }
  if (!WriteBinaryFile(path, text, what)) {
    return false;
  }
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

// End-of-run traffic report: the per-kind table always prints; --msg-stats
// additionally writes the full JSON.
bool ReportMsgStats(const std::string& path, const bench::MsgStatsReport& stats) {
  bench::PrintMsgStats(stats);
  return path.empty() || WriteOutput(path, bench::MsgStatsJson(stats), "msg stats");
}

int RunNpb(KeyValues& kv) {
  const Setup setup = MakeSetup(kv);
  const NpbProfile profile =
      ScaleNpb(NpbByName(kv.Get<std::string>("bench", "CG")), kv.Get("scale", 0.25));
  const uint64_t seed = kv.Get<uint64_t>("seed", 1);
  const std::string msg_stats_path = kv.Get<std::string>("msg_stats", "");
  if (!CheckArgs(kv)) {
    return 2;
  }
  double faults = 0;
  bench::FaultReport report;
  bench::MsgStatsReport msg_stats;
  bench::ReliabilityReport reliability;
  bench::DsmFastPathReport fastpath;
  const TimeNs end = bench::RunNpbMultiProcess(setup, profile, seed, &faults, &report,
                                               &msg_stats, &reliability, &fastpath);
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
  return ReportMsgStats(msg_stats_path, msg_stats) ? 0 : 2;
}

int RunLempCmd(KeyValues& kv) {
  const Setup setup = MakeSetup(kv);
  LempConfig lemp;
  lemp.num_php_workers = setup.vcpus - 1;
  const int processing_ms = kv.Get("processing_ms", 100);
  lemp.processing_time = Millis(processing_ms);
  lemp.total_requests = kv.Get("requests", 40);
  lemp.concurrency = kv.Get("concurrency", 10);
  const std::string msg_stats_path = kv.Get<std::string>("msg_stats", "");
  if (!CheckArgs(kv)) {
    return 2;
  }
  if (lemp.num_php_workers < 1) {
    std::fprintf(stderr, "fvsim: lemp needs --vcpus 2 or more (nginx and a PHP worker)\n");
    return 2;
  }
  double faults = 0;
  bench::MsgStatsReport msg_stats;
  const double tput = bench::RunLemp(setup, lemp, &faults, &msg_stats);
  std::printf("LEMP %d vCPUs on %s, %d ms requests: %.1f req/s (%.0f DSM faults/s)\n",
              setup.vcpus, bench::SystemName(setup.system), processing_ms, tput, faults);
  return ReportMsgStats(msg_stats_path, msg_stats) ? 0 : 2;
}

int RunFaasCmd(KeyValues& kv) {
  const Setup setup = MakeSetup(kv);
  FaasConfig faas;
  faas.download_bytes = kv.Get<uint64_t>("download_mb", 4) << 20;
  faas.extract_bytes = kv.Get<uint64_t>("extract_mb", 16) << 20;
  faas.detect_compute = Millis(kv.Get("detect_ms", 400));
  const std::string msg_stats_path = kv.Get<std::string>("msg_stats", "");
  if (!CheckArgs(kv)) {
    return 2;
  }
  bench::MsgStatsReport msg_stats;
  const FaasPhaseStats stats = bench::RunFaas(setup, faas, nullptr, &msg_stats);
  std::printf("OpenLambda %d workers on %s: download %.1f ms, extract %.1f ms, "
              "detect %.1f ms, total %.1f ms\n",
              setup.vcpus, bench::SystemName(setup.system), stats.download_ns.mean() / 1e6,
              stats.extract_ns.mean() / 1e6, stats.detect_ns.mean() / 1e6,
              stats.total_ns.mean() / 1e6);
  return ReportMsgStats(msg_stats_path, msg_stats) ? 0 : 2;
}

// The snapshot flags of storm and cluster, read into a RunStormEx or
// RunMarketplaceEx config: --snapshot-save F [--snapshot-epoch K] saves once K
// epochs (default: all) have completed; --snapshot-load F resumes from F.
struct SnapshotFiles {
  std::string save_path;
  std::string load_path;
  std::string out;
  std::string in;
  std::string error;

  template <typename RunConfig>
  void Read(KeyValues& kv, int epochs, RunConfig* cfg) {
    save_path = kv.Get<std::string>("snapshot_save", "");
    load_path = kv.Get<std::string>("snapshot_load", "");
    if (!save_path.empty()) {
      cfg->snapshot_out = &out;
      cfg->snapshot_epoch = kv.Get("snapshot_epoch", epochs);
    }
    if (!load_path.empty()) {
      cfg->snapshot_in = &in;
    }
    cfg->error = &error;
  }

  // Before the run: reads the snapshot to resume from.
  bool Load() { return load_path.empty() || ReadBinaryFile(load_path, &in, "snapshot"); }

  // After the run: reports a refused load, or writes the saved snapshot.
  bool Finish(const char* epoch_name, int epoch) {
    if (!error.empty()) {
      std::fprintf(stderr, "snapshot load failed: %s\n", error.c_str());
      return false;
    }
    if (save_path.empty()) {
      return true;
    }
    if (out.empty()) {
      std::fprintf(stderr, "no snapshot was taken (is --snapshot-epoch within --epochs?)\n");
      return false;
    }
    if (!WriteBinaryFile(save_path, out, "snapshot")) {
      return false;
    }
    std::printf("snapshot (%zu bytes, %s %d) written to %s\n", out.size(), epoch_name, epoch,
                save_path.c_str());
    return true;
  }
};

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
int RunStormCmd(KeyValues& kv) {
  StormOptions so;
  ReadOptions(kv, so);
  const int threads = kv.Get("threads", 0);
  const std::string capture_path = kv.Get<std::string>("capture", "");
  const std::string report_path = kv.Get<std::string>("report", "");
  StormRunConfig cfg;
  SnapshotFiles snapshot;
  snapshot.Read(kv, so.epochs, &cfg);
  if (!CheckArgs(kv) || !CheckOptions(so) || !snapshot.Load()) {
    return 2;
  }
  if (threads < 0) {
    std::fprintf(stderr, "fvsim: threads must be at least 0 (0 = the serial engine)\n");
    return 2;
  }
  // The parallel engine's CrossEventId packs partition (node) ids in 16 bits.
  if (threads > 0 && so.num_nodes > 65535) {
    std::fprintf(stderr,
                 "fvsim: nodes (num_nodes) must be at most 65535 with --threads 1 or more\n");
    return 2;
  }
  std::unique_ptr<CaptureLog> capture;
  if (!capture_path.empty()) {
    capture = std::make_unique<CaptureLog>(so.num_nodes);
    cfg.capture = capture.get();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const StormResult r = RunStormEx(so, threads, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (!snapshot.Finish("epoch", cfg.snapshot_epoch)) {
    return 2;
  }
  if (capture != nullptr) {
    // The header is the options text plus the engine, so `fvsim replay` can
    // re-run the captured configuration with no flags.
    const std::string data =
        capture->Serialize(OptionsText(so) + "threads=" + std::to_string(threads) + "\n");
    if (!WriteBinaryFile(capture_path, data, "capture")) {
      return 2;
    }
    std::printf("capture (%llu deliveries, %zu bytes) written to %s\n",
                static_cast<unsigned long long>(capture->total_records()), data.size(),
                capture_path.c_str());
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

  if (!report_path.empty() && !WriteOutput(report_path, StormReport(r), "storm report")) {
    return 2;
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
int RunClusterCmd(KeyValues& kv) {
  MarketplaceOptions mo;
  ReadOptions(kv, mo);
  const int threads = kv.Get("threads", 1);
  const std::string report_path = kv.Get<std::string>("report", "");
  MarketplaceRunConfig cfg;
  SnapshotFiles snapshot;
  snapshot.Read(kv, mo.epochs, &cfg);
  if (!CheckArgs(kv) || !CheckOptions(mo) || !snapshot.Load()) {
    return 2;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const MarketplaceResult r = RunMarketplaceEx(mo, threads, cfg);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (!snapshot.Finish("wave", cfg.snapshot_epoch)) {
    return 2;
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

  if (!report_path.empty() && !WriteOutput(report_path, MarketplaceReport(r), "cluster report")) {
    return 2;
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
int RunReplayCmd(KeyValues& kv) {
  const std::string path = kv.Get<std::string>("capture", "");
  const int threads_flag = kv.Get("threads", -1);
  if (!CheckArgs(kv)) {
    return 2;
  }
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
  KeyValues header;
  StormOptions so;
  int recorded_threads = 0;
  bool ok = CaptureLog::Deserialize(data, &blob, &expected, &error) &&
            KeyValues::FromText(blob, &header, &error);
  if (ok) {
    header.Read("threads", recorded_threads);
    ReadOptions(header, so);
    ok = header.Check(&error);
  }
  if (!ok) {
    std::fprintf(stderr, "cannot load capture '%s': %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const int threads = threads_flag >= 0 ? threads_flag : recorded_threads;
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

int RunSweep(KeyValues& kv) {
  const double scale = kv.Get("scale", 0.25);
  const NpbProfile profile = ScaleNpb(NpbByName(kv.Get<std::string>("bench", "CG")), scale);
  const uint64_t seed = kv.Get<uint64_t>("seed", 1);
  const int vcpus_min = kv.Get("vcpus_min", 2);
  const int vcpus_max = kv.Get("vcpus_max", 4);
  const std::vector<std::string> systems =
      SplitList(kv.Get<std::string>("systems", "fragvisor,giantvm,overcommit:1,overcommit:2"));
  const int jobs = kv.Get("jobs", 1);
  if (!CheckArgs(kv)) {
    return 2;
  }

  std::printf("%s sweep (scale %.2f, seed %llu)\n", profile.name.c_str(), scale,
              static_cast<unsigned long long>(seed));
  bench::PrintRow({"system", "vCPUs", "time(ms)", "faults/s"}, 14);

  bench::ParallelRunner runner(jobs);
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
  std::printf("  storm   [--threads N] [--report [PATH]] [--capture F] [--KEY VALUE ...]\n");
  std::printf("  cluster [--threads N] [--report [PATH]] [--KEY VALUE ...]\n");
  std::printf("          both: [--snapshot-save F --snapshot-epoch K] [--snapshot-load F]\n");
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
  std::printf("         (storm and cluster: see their fault_* keys below)\n");
  std::printf("protect: --protect (heartbeats + checkpoint/restart; npb only)\n");
  std::printf("         --detector phi|fixed (gray-failure-aware vs miss counter)\n");
  std::printf("         --partial-recovery (surgical lender-death recovery)\n");
  std::printf("         --ckpt-ms T --heartbeat-ms T\n");
  std::printf("leases:  --lease-ms T [--lease-renew-ms T] (lease borrowed resources)\n");
  std::printf("threads: --threads N on storm/cluster is the parallel core's worker count\n\n");
  // The options text of a default run: every key with its default value.
  std::printf("storm keys (--KEY VALUE, or \"KEY\": VALUE in a scenario), defaults:\n");
  for (const std::string& line : SplitList(OptionsText(StormOptions{}), '\n')) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("cluster keys, defaults:\n");
  for (const std::string& line : SplitList(OptionsText(MarketplaceOptions{}), '\n')) {
    std::printf("  %s\n", line.c_str());
  }

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
  const std::string command = argc >= 2 ? argv[1] : "";
  KeyValues kv;
  if (!ParseArgs(argc, argv, &kv)) {
    return 2;
  }
  if (command == "npb") {
    return RunNpb(kv);
  }
  if (command == "lemp") {
    return RunLempCmd(kv);
  }
  if (command == "faas") {
    return RunFaasCmd(kv);
  }
  if (command == "storm") {
    return RunStormCmd(kv);
  }
  if (command == "cluster") {
    return RunClusterCmd(kv);
  }
  if (command == "replay") {
    return RunReplayCmd(kv);
  }
  if (command == "sweep") {
    return RunSweep(kv);
  }
  if (command == "list" || command.empty()) {
    return CheckArgs(kv) ? List() : 2;
  }
  std::fprintf(stderr, "unknown command '%s'; try 'fvsim list'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) { return fragvisor::Main(argc, argv); }

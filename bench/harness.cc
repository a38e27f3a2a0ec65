#include "bench/harness.h"

#include <cstdio>

#include "src/sim/check.h"

namespace fragvisor {
namespace bench {

const char* SystemName(System system) {
  switch (system) {
    case System::kFragVisor:
      return "FragVisor";
    case System::kOvercommit:
      return "Overcommit";
    case System::kGiantVm:
      return "GiantVM";
  }
  return "unknown";
}

TestBed MakeTestBed(const Setup& setup) {
  FV_CHECK_GT(setup.vcpus, 0);
  TestBed bed;

  Cluster::Config cc;
  cc.num_nodes = setup.vcpus + (setup.with_client ? 1 : 0);
  if (setup.system == System::kOvercommit) {
    cc.num_nodes = 1 + (setup.with_client ? 1 : 0);
  }
  cc.num_nodes = std::max(cc.num_nodes, 2);
  cc.pcpus_per_node = 8;
  cc.rpc = setup.rpc;
  bed.cluster = std::make_unique<Cluster>(cc);

  if (setup.faults.enabled()) {
    bed.fault_plan = std::make_unique<FaultPlan>(setup.faults.seed);
    bed.fault_plan->Schedule(setup.faults.schedule, cc.num_nodes);
    bed.cluster->fabric().AttachFaultPlan(bed.fault_plan.get());
  }

  if (setup.with_client) {
    bed.client_node = cc.num_nodes - 1;
    for (NodeId n = 0; n < cc.num_nodes - 1; ++n) {
      bed.cluster->fabric().SetLinkParams(n, bed.client_node, LinkParams::Ethernet1G());
      bed.cluster->fabric().SetLinkParams(bed.client_node, n, LinkParams::Ethernet1G());
    }
  }

  AggregateVmConfig config;
  config.guest = setup.guest;
  config.io_multiqueue = setup.io_multiqueue;
  config.io_dsm_bypass = setup.io_dsm_bypass;
  config.contextual_dsm = setup.contextual_dsm;
  config.dsm_read_prefetch = setup.dsm_prefetch;
  config.dsm_owner_hints = setup.dsm_owner_hints;
  config.dsm_read_mostly_replication = setup.dsm_replicate;
  config.dsm_adaptive_granularity = setup.dsm_adaptive;
  config.dsm_rdma_read = setup.dsm_rdma_read;
  config.dsm_compress = setup.dsm_compress;
  config.blk_backend = setup.blk_backend;
  config.external_node = bed.client_node;
  switch (setup.system) {
    case System::kFragVisor:
      config.platform = Platform::kFragVisor;
      config.placement = DistributedPlacement(setup.vcpus);
      break;
    case System::kGiantVm:
      config.platform = Platform::kGiantVm;
      config.placement = DistributedPlacement(setup.vcpus);
      if (setup.giantvm_colocated_helpers) {
        config.giantvm.helper_placement = GiantVmProfile::HelperPlacement::kColocated;
      }
      break;
    case System::kOvercommit:
      config.platform = Platform::kFragVisor;
      config.placement = OvercommitPlacement(0, setup.vcpus, setup.overcommit_pcpus);
      break;
  }
  bed.vm = std::make_unique<AggregateVm>(bed.cluster.get(), config);
  return bed;
}

void AttachReliability(TestBed& bed, const Setup& setup) {
  const ReliabilitySpec& rel = setup.reliability;
  if (!rel.enabled()) {
    return;
  }
  FV_CHECK(bed.vm->booted());
  const NodeId home = bed.vm->dsm().home();

  HealthMonitor::Config hc;
  hc.heartbeat_interval = rel.heartbeat_interval;
  hc.miss_threshold = rel.miss_threshold;
  hc.detector = rel.detector;
  bed.health = std::make_unique<HealthMonitor>(bed.cluster.get(), hc);

  if (rel.protect) {
    FailoverManager::Config fc;
    fc.checkpoint_interval = rel.checkpoint_interval;
    fc.checkpoint_node = home;
    fc.partial_recovery = rel.partial_recovery;
    bed.failover = std::make_unique<FailoverManager>(bed.cluster.get(), bed.health.get(), fc);
    bed.failover->Protect(bed.vm.get());
  }
  if (rel.leases) {
    LeaseManagerConfig lc;
    lc.duration = rel.lease_duration;
    lc.renew_interval = rel.lease_renew;
    bed.leases = std::make_unique<LeaseManager>(&bed.cluster->rpc(), lc);
    bed.vm->StartLeaseProtection(bed.leases.get());
    LeaseManager* leases = bed.leases.get();
    bed.health->AddObserver([leases](NodeId node, NodeHealth health) {
      if (health == NodeHealth::kFailed) {
        leases->OnNodeFailure(node);
      }
    });
  }
  bed.health->StartHeartbeats(home);
}

namespace {

double PercentileMs(const Histogram& hist, double p) {
  return hist.count() == 0 ? 0.0 : hist.Percentile(p) / 1e6;
}

}  // namespace

ReliabilityReport CollectReliabilityReport(const TestBed& bed) {
  ReliabilityReport r;
  if (bed.health != nullptr) {
    r.failures_detected = bed.health->failures_detected();
    r.recoveries_detected = bed.health->recoveries_detected();
    r.suspicions_raised = bed.health->suspicions_raised();
    r.slow_marks = bed.health->slow_marks();
    r.detection_p50_ms = PercentileMs(bed.health->detection_latency_hist(), 50.0);
    r.detection_p99_ms = PercentileMs(bed.health->detection_latency_hist(), 99.0);
  }
  if (bed.failover != nullptr) {
    const FailoverStats& fs = bed.failover->stats();
    r.checkpoints = fs.checkpoints_taken.value();
    r.vcpus_evacuated = fs.vcpus_evacuated.value();
    r.failovers = fs.failovers.value();
    r.partial_recoveries = fs.partial_recoveries.value();
    r.evacuation_p50_ms = PercentileMs(fs.evacuation_time_hist, 50.0);
    r.evacuation_p99_ms = PercentileMs(fs.evacuation_time_hist, 99.0);
    r.full_recovery_p50_ms = PercentileMs(fs.recovery_time_hist, 50.0);
    r.full_recovery_p99_ms = PercentileMs(fs.recovery_time_hist, 99.0);
    r.partial_recovery_p50_ms = PercentileMs(fs.partial_recovery_time_hist, 50.0);
    r.partial_recovery_p99_ms = PercentileMs(fs.partial_recovery_time_hist, 99.0);
    r.full_lost_work_ms = fs.lost_work_ns.mean() / 1e6;
    r.partial_lost_work_ms = fs.partial_lost_work_ns.mean() / 1e6;
  }
  if (bed.leases != nullptr) {
    const LeaseStats& ls = bed.leases->stats();
    r.leases_granted = ls.granted.value();
    r.leases_renewed = ls.renewed.value();
    r.leases_expired = ls.expired.value();
    r.leases_revoked = ls.revoked.value();
    r.lease_renew_failures = ls.renew_failures.value();
    r.lease_handbacks = ls.handbacks.value();
  }
  return r;
}

void PrintReliabilityReport(const ReliabilityReport& r) {
  PrintRow({"detect", "failures=" + std::to_string(r.failures_detected),
            "recoveries=" + std::to_string(r.recoveries_detected),
            "suspected=" + std::to_string(r.suspicions_raised),
            "slow=" + std::to_string(r.slow_marks),
            "p50=" + Fmt(r.detection_p50_ms) + "ms", "p99=" + Fmt(r.detection_p99_ms) + "ms"},
           18);
  PrintRow({"recover", "ckpts=" + std::to_string(r.checkpoints),
            "evac=" + std::to_string(r.vcpus_evacuated),
            "full=" + std::to_string(r.failovers),
            "partial=" + std::to_string(r.partial_recoveries)},
           18);
  PrintRow({"latency", "evac_p99=" + Fmt(r.evacuation_p99_ms) + "ms",
            "full_p99=" + Fmt(r.full_recovery_p99_ms) + "ms",
            "partial_p99=" + Fmt(r.partial_recovery_p99_ms) + "ms"},
           18);
  PrintRow({"lost_work", "full=" + Fmt(r.full_lost_work_ms) + "ms",
            "partial=" + Fmt(r.partial_lost_work_ms) + "ms"},
           18);
  if (r.leases_granted > 0 || r.lease_handbacks > 0) {
    PrintRow({"leases", "granted=" + std::to_string(r.leases_granted),
              "renewed=" + std::to_string(r.leases_renewed),
              "expired=" + std::to_string(r.leases_expired),
              "revoked=" + std::to_string(r.leases_revoked),
              "renew_fail=" + std::to_string(r.lease_renew_failures),
              "handbacks=" + std::to_string(r.lease_handbacks)},
             18);
  }
}

bool FaultReport::operator==(const FaultReport& other) const {
  return dropped == other.dropped && duplicated == other.duplicated && delayed == other.delayed &&
         crashes == other.crashes && restarts == other.restarts &&
         retransmits == other.retransmits && timeouts == other.timeouts &&
         send_failures == other.send_failures && dups_suppressed == other.dups_suppressed &&
         dsm_retries == other.dsm_retries && dsm_absorbed == other.dsm_absorbed &&
         dsm_write_aborts == other.dsm_write_aborts &&
         dsm_pages_reclaimed == other.dsm_pages_reclaimed;
}

FaultReport CollectFaultReport(const Fabric& fabric, const DsmEngine* dsm,
                               const FaultPlan* plan) {
  FaultReport report;
  if (plan != nullptr) {
    const FaultPlanStats& ps = plan->stats();
    report.dropped = ps.messages_dropped.value();
    report.duplicated = ps.messages_duplicated.value();
    report.delayed = ps.messages_delayed.value();
    report.crashes = ps.node_crashes.value();
    report.restarts = ps.node_restarts.value();
  }
  const RetryStats& rs = fabric.retry_stats();
  report.retransmits = rs.retransmits.total();
  report.timeouts = rs.timeouts.total();
  report.send_failures = rs.send_failures.total();
  report.dups_suppressed = rs.dups_suppressed.total();
  if (dsm != nullptr) {
    const DsmStats& ds = dsm->stats();
    report.dsm_retries = ds.txn_retries.total();
    report.dsm_absorbed = ds.txn_absorbed.total();
    report.dsm_write_aborts = ds.write_aborts.total();
    report.dsm_pages_reclaimed = ds.pages_reclaimed.value();
  }
  return report;
}

FaultReport CollectFaultReport(const TestBed& bed) {
  return CollectFaultReport(bed.cluster->fabric(),
                            bed.vm != nullptr ? &bed.vm->dsm() : nullptr, bed.fault_plan.get());
}

MsgStatsReport CollectMsgStats(const TestBed& bed) {
  MsgStatsReport report;
  const FabricStats& fs = bed.cluster->fabric().stats();
  for (size_t k = 0; k < static_cast<size_t>(MsgKind::kCount); ++k) {
    report.messages[k] = fs.messages[k].value();
    report.bytes[k] = fs.bytes[k].value();
  }
  report.total_messages = fs.total_messages.value();
  report.total_bytes = fs.total_bytes.value();
  const RpcStats& rs = bed.cluster->rpc().stats();
  report.rpc_calls = rs.calls.value();
  report.rpc_datagrams = rs.datagrams.value();
  report.rpc_multicast_rounds = rs.multicast_rounds.value();
  report.rpc_acks_coalesced = rs.acks_coalesced.value();
  report.rpc_qos_deferred = rs.qos_deferred.value();
  return report;
}

void PrintMsgStats(const MsgStatsReport& r) {
  PrintRow({"msg kind", "messages", "bytes"}, 18);
  for (size_t k = 0; k < static_cast<size_t>(MsgKind::kCount); ++k) {
    if (r.messages[k] == 0) {
      continue;
    }
    PrintRow({MsgKindName(static_cast<MsgKind>(k)), std::to_string(r.messages[k]),
              std::to_string(r.bytes[k])},
             18);
  }
  PrintRow({"total", std::to_string(r.total_messages), std::to_string(r.total_bytes)}, 18);
  PrintRow({"rpc", "calls=" + std::to_string(r.rpc_calls),
            "datagrams=" + std::to_string(r.rpc_datagrams),
            "mcast=" + std::to_string(r.rpc_multicast_rounds),
            "coalesced=" + std::to_string(r.rpc_acks_coalesced),
            "qos_deferred=" + std::to_string(r.rpc_qos_deferred)},
           18);
}

std::string MsgStatsJson(const MsgStatsReport& r) {
  std::string json = "{\n  \"kinds\": {\n";
  for (size_t k = 0; k < static_cast<size_t>(MsgKind::kCount); ++k) {
    json += std::string("    \"") + MsgKindName(static_cast<MsgKind>(k)) +
            "\": {\"messages\": " + std::to_string(r.messages[k]) +
            ", \"bytes\": " + std::to_string(r.bytes[k]) + "}";
    json += (k + 1 < static_cast<size_t>(MsgKind::kCount)) ? ",\n" : "\n";
  }
  json += "  },\n";
  json += "  \"total_messages\": " + std::to_string(r.total_messages) + ",\n";
  json += "  \"total_bytes\": " + std::to_string(r.total_bytes) + ",\n";
  json += "  \"rpc\": {\"calls\": " + std::to_string(r.rpc_calls) +
          ", \"datagrams\": " + std::to_string(r.rpc_datagrams) +
          ", \"multicast_rounds\": " + std::to_string(r.rpc_multicast_rounds) +
          ", \"acks_coalesced\": " + std::to_string(r.rpc_acks_coalesced) +
          ", \"qos_deferred\": " + std::to_string(r.rpc_qos_deferred) + "}\n}\n";
  return json;
}

DsmFastPathReport CollectDsmFastPathReport(const DsmEngine& dsm) {
  DsmFastPathReport r;
  const DsmStats& s = dsm.stats();
  r.hint_hits = s.hint_hits.value();
  r.hint_stale = s.hint_stale.value();
  r.replica_reads = s.replica_reads.value();
  r.region_transfers = s.region_transfers.value();
  r.read_mostly_promotions = s.read_mostly_promotions.value();
  r.hold_escalations = s.hold_escalations.value();
  r.prefetched_pages = s.prefetched_pages.value();
  r.read_faults = s.read_faults.value();
  r.write_faults = s.write_faults.value();
  r.fault_latency_mean_us = s.fault_latency_ns.mean() / 1000.0;
  r.rdma_reads = s.rdma_reads.value();
  r.compressed_transfers = s.compressed_transfers.value();
  r.delta_transfers = s.delta_transfers.value();
  r.transfer_bytes_saved = s.transfer_bytes_saved.value();
  return r;
}

DsmFastPathReport CollectDsmFastPathReport(const TestBed& bed) {
  if (bed.vm == nullptr) {
    return DsmFastPathReport{};
  }
  return CollectDsmFastPathReport(bed.vm->dsm());
}

void PrintDsmFastPathReport(const DsmFastPathReport& r) {
  PrintRow({"hints", "hit=" + std::to_string(r.hint_hits),
            "stale=" + std::to_string(r.hint_stale)});
  PrintRow({"replicate", "replica_reads=" + std::to_string(r.replica_reads),
            "promotions=" + std::to_string(r.read_mostly_promotions)});
  PrintRow({"adaptive", "regions=" + std::to_string(r.region_transfers),
            "prefetched=" + std::to_string(r.prefetched_pages),
            "hold_escal=" + std::to_string(r.hold_escalations)});
  // Transport row only when a transport fast path actually fired, keeping
  // every pre-existing report byte-identical.
  if (r.rdma_reads > 0 || r.compressed_transfers > 0 || r.delta_transfers > 0) {
    PrintRow({"transport", "rdma_reads=" + std::to_string(r.rdma_reads),
              "compressed=" + std::to_string(r.compressed_transfers),
              "deltas=" + std::to_string(r.delta_transfers),
              "bytes_saved=" + std::to_string(r.transfer_bytes_saved)});
  }
  PrintRow({"faults", "read=" + std::to_string(r.read_faults),
            "write=" + std::to_string(r.write_faults),
            "lat_us=" + Fmt(r.fault_latency_mean_us)});
}

void PrintFaultReport(const FaultReport& r) {
  PrintRow({"injected", "drop=" + std::to_string(r.dropped), "dup=" + std::to_string(r.duplicated),
            "delay=" + std::to_string(r.delayed), "crash=" + std::to_string(r.crashes),
            "restart=" + std::to_string(r.restarts)});
  PrintRow({"channel", "retx=" + std::to_string(r.retransmits),
            "timeout=" + std::to_string(r.timeouts), "fail=" + std::to_string(r.send_failures),
            "dupsup=" + std::to_string(r.dups_suppressed)});
  PrintRow({"dsm", "retry=" + std::to_string(r.dsm_retries),
            "absorb=" + std::to_string(r.dsm_absorbed),
            "abort=" + std::to_string(r.dsm_write_aborts),
            "reclaim=" + std::to_string(r.dsm_pages_reclaimed)});
}

TimeNs RunNpbMultiProcess(const Setup& setup, const NpbProfile& profile, uint64_t seed,
                          double* faults_per_sec, FaultReport* fault_report,
                          MsgStatsReport* msg_stats, ReliabilityReport* reliability,
                          DsmFastPathReport* fastpath) {
  TestBed bed = MakeTestBed(setup);
  for (int v = 0; v < setup.vcpus; ++v) {
    bed.vm->SetWorkload(v, std::make_unique<NpbSerialStream>(bed.vm.get(), v, profile,
                                                             seed * 1000 + static_cast<uint64_t>(v)));
  }
  bed.vm->Boot();
  AttachReliability(bed, setup);
  const TimeNs end = RunUntilVmDone(*bed.cluster, *bed.vm, Seconds(600));
  FV_CHECK(bed.vm->AllFinished());
  if (faults_per_sec != nullptr) {
    *faults_per_sec = RatePerSecond(bed.vm->dsm().stats().total_faults(), end);
  }
  if (fault_report != nullptr) {
    *fault_report = CollectFaultReport(bed);
  }
  if (msg_stats != nullptr) {
    *msg_stats = CollectMsgStats(bed);
  }
  if (reliability != nullptr) {
    *reliability = CollectReliabilityReport(bed);
  }
  if (fastpath != nullptr) {
    *fastpath = CollectDsmFastPathReport(bed);
  }
  return end;
}

TimeNs RunOmp(const Setup& setup, const OmpProfile& profile, double* faults_per_sec,
              uint64_t seed) {
  TestBed bed = MakeTestBed(setup);
  OmpSharedRegion region = OmpSharedRegion::Create(*bed.vm, profile.shared_pages);
  for (int v = 0; v < setup.vcpus; ++v) {
    bed.vm->SetWorkload(v, std::make_unique<OmpThreadStream>(bed.vm.get(), v, profile, region,
                                                             seed * 1000 + static_cast<uint64_t>(v)));
  }
  bed.vm->Boot();
  const TimeNs end = RunUntilVmDone(*bed.cluster, *bed.vm, Seconds(600));
  FV_CHECK(bed.vm->AllFinished());
  if (faults_per_sec != nullptr) {
    *faults_per_sec = RatePerSecond(bed.vm->dsm().stats().total_faults(), end);
  }
  return end;
}

double RunLemp(const Setup& setup, const LempConfig& lemp, double* faults_per_sec,
               MsgStatsReport* msg_stats) {
  Setup s = setup;
  s.with_client = true;
  FV_CHECK_GE(s.vcpus, lemp.num_php_workers + 1);
  TestBed bed = MakeTestBed(s);
  LempDeployment deployment = DeployLemp(*bed.vm, lemp);
  bed.vm->Boot();
  deployment.client->Start();
  const TimeNs end = RunUntil(*bed.cluster, [&]() { return deployment.client->Done(); },
                              Seconds(3000));
  FV_CHECK(deployment.client->Done());
  *deployment.php_stop = true;
  if (faults_per_sec != nullptr) {
    *faults_per_sec = RatePerSecond(bed.vm->dsm().stats().total_faults(), end);
  }
  if (msg_stats != nullptr) {
    *msg_stats = CollectMsgStats(bed);
  }
  return deployment.client->Throughput();
}

FaasPhaseStats RunFaas(const Setup& setup, const FaasConfig& faas, double* faults_per_sec,
                       MsgStatsReport* msg_stats) {
  Setup s = setup;
  s.with_client = true;
  s.blk_backend = BlkBackend::kTmpfs;  // ramdisk root filesystem
  TestBed bed = MakeTestBed(s);
  FaasPhaseStats stats;
  for (int v = 0; v < s.vcpus; ++v) {
    bed.vm->SetWorkload(v, std::make_unique<FaasWorkerStream>(bed.vm.get(), v, faas, &stats));
  }
  bed.vm->Boot();
  FaasStartDownloads(*bed.vm, faas, s.vcpus);
  const TimeNs end = RunUntilVmDone(*bed.cluster, *bed.vm, Seconds(3000));
  FV_CHECK(bed.vm->AllFinished());
  if (faults_per_sec != nullptr) {
    *faults_per_sec = RatePerSecond(bed.vm->dsm().stats().total_faults(), end);
  }
  if (msg_stats != nullptr) {
    *msg_stats = CollectMsgStats(bed);
  }
  return stats;
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

std::string Fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace bench
}  // namespace fragvisor

#include "src/workload/goldentrace.h"

#include "src/host/cost_model.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/check.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"

namespace fragvisor {

GoldenTraceResult RunGoldenTrace(FaultPlan* plan,
                                 const std::function<void(DsmEngine::Options&)>& mutate,
                                 bool snapshot_roundtrip, std::string* snapshot_out) {
  constexpr int kNodes = 4;
  constexpr PageNum kPages = 10000;

  EventLoop loop;
  Fabric fabric(&loop, kNodes, LinkParams::InfiniBand56G());
  if (plan != nullptr) {
    fabric.AttachFaultPlan(plan);
  }
  const CostModel costs = CostModel::Default();
  DsmEngine::Options opts;
  opts.home = 0;
  opts.num_nodes = kNodes;
  opts.read_prefetch_pages = 2;
  if (mutate) {
    mutate(opts);
  }
  RpcLayer rpc(&loop, &fabric);
  DsmEngine dsm(&loop, &rpc, &costs, opts);

  dsm.SetPageClass(0, 512, PageClass::kReadMostly);
  dsm.SetPageClass(512, 128, PageClass::kPageTable);
  for (int n = 0; n < kNodes; ++n) {
    dsm.SeedRange(static_cast<PageNum>(n) * (kPages / kNodes), kPages / kNodes, n);
  }

  GoldenTraceResult out;
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 100; ++i) {
      const NodeId node = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
      const PageNum page = static_cast<PageNum>(rng.UniformInt(0, kPages - 1));
      const bool is_write = rng.Chance(0.35);
      if (dsm.Access(node, page, is_write, [&out]() { ++out.resolved; })) {
        ++out.hits;
      }
    }
    loop.Run();
    if (round == 100) {
      dsm.MigrateOwnedPages(0, 3, [&out](uint64_t moved) { out.migrated = moved; });
      loop.Run();
    }
    if (round == 150 && snapshot_roundtrip) {
      // The drained queue is a quiesce point: serialize the whole engine and
      // load it straight back. The run must continue bit-identically — the
      // pinned hash is the proof.
      SnapshotWriter w;
      dsm.SaveState(&w);
      const std::string snap = w.Finish();
      SnapshotReader r(snap);
      FV_CHECK(dsm.LoadState(&r));
      if (snapshot_out != nullptr) {
        *snapshot_out = snap;
      }
    }
    if (round == 200) {
      out.reseeded = dsm.ReseedOwnedBy(1, 0);
    }
  }
  out.pages_checked = dsm.CheckInvariants();
  out.read_faults = dsm.stats().read_faults.value();
  out.write_faults = dsm.stats().write_faults.value();
  out.invalidations = dsm.stats().invalidations.value();
  out.page_transfers = dsm.stats().page_transfers.value();
  out.prefetched_pages = dsm.stats().prefetched_pages.value();
  out.protocol_messages = dsm.stats().protocol_messages.value();
  out.protocol_bytes = dsm.stats().protocol_bytes.value();
  out.final_time = loop.now();
  out.hint_hits = dsm.stats().hint_hits.value();
  out.hint_stale = dsm.stats().hint_stale.value();
  out.replica_reads = dsm.stats().replica_reads.value();
  out.region_transfers = dsm.stats().region_transfers.value();
  out.read_mostly_promotions = dsm.stats().read_mostly_promotions.value();
  out.hold_escalations = dsm.stats().hold_escalations.value();
  return out;
}

std::string GoldenTraceReport(const GoldenTraceResult& r) {
  std::string out;
  out.reserve(512);
  const auto line = [&out](const char* key, uint64_t v) {
    out += key;
    out += '=';
    out += std::to_string(v);
    out += '\n';
  };
  line("hits", r.hits);
  line("resolved", r.resolved);
  line("read_faults", r.read_faults);
  line("write_faults", r.write_faults);
  line("invalidations", r.invalidations);
  line("page_transfers", r.page_transfers);
  line("prefetched_pages", r.prefetched_pages);
  line("protocol_messages", r.protocol_messages);
  line("protocol_bytes", r.protocol_bytes);
  line("migrated", r.migrated);
  line("reseeded", r.reseeded);
  line("pages_checked", r.pages_checked);
  line("final_time_ns", static_cast<uint64_t>(r.final_time));
  line("hint_hits", r.hint_hits);
  line("hint_stale", r.hint_stale);
  line("replica_reads", r.replica_reads);
  line("region_transfers", r.region_transfers);
  line("read_mostly_promotions", r.read_mostly_promotions);
  line("hold_escalations", r.hold_escalations);
  return out;
}

uint64_t GoldenTraceHash(const GoldenTraceResult& r) {
  return SnapshotHashString(GoldenTraceReport(r));
}

}  // namespace fragvisor

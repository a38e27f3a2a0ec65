#include "src/workload/dsmstorm.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ckpt/sim_snapshot.h"
#include "src/net/capture.h"
#include "src/sim/check.h"
#include "src/sim/event_loop.h"
#include "src/sim/options_text.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/state_io.h"

namespace fragvisor {
namespace {

constexpr uint64_t kReadReqBytes = 64;
constexpr uint64_t kWriteReqBytes = 128;
constexpr uint64_t kPageBytes = 4096;
constexpr uint64_t kInvBytes = 64;
constexpr uint64_t kAckBytes = 64;

// Request token: [gpid : 40][requester : 16][stream : 8]. The home decodes
// everything it needs to serve and reply without any shared lookup table.
uint64_t PackToken(int64_t gpid, int32_t node, int stream) {
  FV_DCHECK(gpid < (int64_t{1} << 40));
  FV_DCHECK(node < (1 << 16));
  FV_DCHECK(stream < (1 << 8));
  return (static_cast<uint64_t>(gpid) << 24) | (static_cast<uint64_t>(node) << 8) |
         static_cast<uint64_t>(stream);
}

struct StreamState {
  Rng rng{0};
  int remaining = 0;

  // The field list (src/sim/state_io.h), in snapshot wire order.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.rng...);
    v(As<int64_t>(s.remaining)...);
  }
};

// Everything below is owned by exactly one node and only ever touched from
// that node's partition (its own streams, its bound handlers, its reply
// continuations) — the property that makes the storm race-free on the
// parallel core without any locking.
struct NodeState {
  std::vector<StreamState> streams;
  std::vector<int64_t> cache;        // direct-mapped: global page id or -1
  std::vector<uint64_t> version;     // home-side write counts per local page
  std::vector<int32_t> last_reader;  // home-side: last remote reader or -1
  StormCounters c;

  // The field list (src/sim/state_io.h), in snapshot wire order. The vector
  // lengths come from StormOptions.
  template <typename V, typename... S>
  static constexpr void Fields(V&& v, S&... s) {
    v(s.streams...);
    v(s.cache...);
    v(s.version...);
    v(As<int64_t>(s.last_reader)...);
    v(s.c...);
  }
};

class Storm {
 public:
  Storm(const StormOptions& opts, int threads, const StormRunConfig& cfg);
  StormResult Run(const StormRunConfig& cfg);

  // Restores a snapshot taken by a run with identical StormOptions on the
  // same engine kind. On failure, latches the error on the reader and
  // returns false; the Storm instance may be partially mutated and must be
  // discarded (RunStormEx never runs a failed load).
  bool Load(SnapshotReader* r);

 private:
  EventLoop* NodeLoop(int32_t node) {
    return ploop_ != nullptr ? ploop_->partition(node) : serial_.get();
  }

  TimeNs Now() const { return ploop_ != nullptr ? ploop_->now_max() : serial_->now(); }

  void ScheduleEpochKickoffs();
  void RunEngine();
  std::string Save();
  uint64_t ConfigFingerprint() const;

  void DoAccess(int32_t node, int stream);
  void FinishAccess(int32_t node, int stream);
  void InstallAndResume(int32_t node, int stream, int64_t gpid);
  void HandleRead(const RpcLayer::Inbound& in);
  void HandleWrite(const RpcLayer::Inbound& in);
  void HandleInvalidate(const RpcLayer::Inbound& in);
  uint64_t Digest() const;

  const StormOptions opts_;
  const int threads_;
  std::unique_ptr<EventLoop> serial_;
  std::unique_ptr<ParallelEventLoop> ploop_;
  std::unique_ptr<FaultPlan> plan_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<RpcLayer> rpc_;
  std::vector<NodeState> nodes_;
  RunProgress progress_;  // counts the epochs a snapshot restored too
};

Storm::Storm(const StormOptions& opts, int threads, const StormRunConfig& cfg)
    : opts_(opts), threads_(threads) {
  if (const char* why = opts.Invalid()) {
    CheckFailed(__FILE__, __LINE__, why);
  }
  FV_CHECK_GE(threads, 0);

  if (threads > 0) {
    ParallelEventLoop::Options po;
    po.num_partitions = opts.num_nodes;
    po.num_threads = threads;
    // The minimum effective first-hop latency is the cluster-wide floor:
    // jitter only ever adds, and a fat-tree's cross-pod paths only ever add
    // on top of that. On a mesh this is exactly the link latency.
    po.lookahead = Fabric::MinEffectiveLatency(opts.topology, opts.link, opts.num_nodes);
    ploop_ = std::make_unique<ParallelEventLoop>(po);
    fabric_ = std::make_unique<Fabric>(ploop_.get(), opts.num_nodes, opts.link, opts.topology);
  } else {
    serial_ = std::make_unique<EventLoop>();
    fabric_ = std::make_unique<Fabric>(serial_.get(), opts.num_nodes, opts.link, opts.topology);
  }

  fabric_->JitterLinks(opts.latency_jitter_ns, opts.seed);

  if (opts.faults.any()) {
    plan_ = std::make_unique<FaultPlan>(SplitMix64(opts.seed ^ 0xfa017ull));
    // Per-node draw streams on BOTH engines: the serial engine does not need
    // them for correctness, but using one configuration everywhere keeps the
    // fault schedule a function of StormOptions alone per engine.
    plan_->EnablePerNodeStreams(opts.num_nodes);
    plan_->Schedule(opts.faults, opts.num_nodes);
    // A restored run resumes past every transition marker (epoch boundaries
    // drain the whole queue, markers included), so re-arming would fire them
    // again at the resume instant and double-count the fault counters.
    fabric_->AttachFaultPlan(plan_.get(), RetryPolicy(), /*arm=*/cfg.snapshot_in == nullptr);
  }

  if (cfg.capture != nullptr) {
    FV_CHECK_EQ(cfg.capture->num_nodes(), opts.num_nodes);
    fabric_->SetCapture(cfg.capture);
  }

  rpc_ = std::make_unique<RpcLayer>(serial_.get(), fabric_.get(), RpcConfig{});

  nodes_.resize(static_cast<size_t>(opts.num_nodes));
  for (int32_t n = 0; n < opts.num_nodes; ++n) {
    NodeState& ns = nodes_[static_cast<size_t>(n)];
    ns.streams.resize(static_cast<size_t>(opts.streams_per_node));
    for (int s = 0; s < opts.streams_per_node; ++s) {
      StreamState& st = ns.streams[static_cast<size_t>(s)];
      st.rng = Rng(SplitMix64(opts.seed + 1 +
                              static_cast<uint64_t>(n) *
                                  static_cast<uint64_t>(opts.streams_per_node) +
                              static_cast<uint64_t>(s)));
      st.remaining = opts.accesses_per_stream;
    }
    ns.cache.assign(static_cast<size_t>(opts.cache_slots), -1);
    ns.version.assign(static_cast<size_t>(opts.pages_per_node), 0);
    ns.last_reader.assign(static_cast<size_t>(opts.pages_per_node), -1);
    rpc_->Bind(n, MsgKind::kDsmReadReq,
               [this](const RpcLayer::Inbound& in) { HandleRead(in); });
    rpc_->Bind(n, MsgKind::kDsmWriteReq,
               [this](const RpcLayer::Inbound& in) { HandleWrite(in); });
    rpc_->Bind(n, MsgKind::kDsmInvalidate,
               [this](const RpcLayer::Inbound& in) { HandleInvalidate(in); });
  }

  // Stream kickoffs are scheduled per epoch by Run(), never here: a restored
  // run must not see epoch-0 kickoffs in its queue.
}

// Schedules the next epoch's accesses. Epoch 0 of a fresh run starts at the
// historical staggered offsets (time zero must not be one giant tie); every
// later epoch — and every epoch of a restored run — starts one full link
// latency past the drained queue's end, which keeps the base strictly above
// the parallel core's lookahead horizon so both the direct partition
// ScheduleAt here and the cross-node sends it triggers are legal. The base
// is a pure function of the (deterministic) drain time, so a resumed run
// schedules the identical kickoffs the uninterrupted run does.
void Storm::ScheduleEpochKickoffs() {
  const TimeNs now = Now();
  const TimeNs base = now == 0 ? 0 : now + opts_.link.latency + 1;
  for (int32_t n = 0; n < opts_.num_nodes; ++n) {
    NodeState& ns = nodes_[static_cast<size_t>(n)];
    for (int s = 0; s < opts_.streams_per_node; ++s) {
      ns.streams[static_cast<size_t>(s)].remaining = opts_.accesses_per_stream;
      const TimeNs start =
          base + Nanos(1 + (static_cast<int64_t>(n) * opts_.streams_per_node + s) % 97);
      NodeLoop(n)->ScheduleAt(start, [this, n, s] { DoAccess(n, s); });
    }
  }
}

void Storm::RunEngine() {
  progress_.events += ploop_ != nullptr ? ploop_->Run() : serial_->Run();
}

void Storm::DoAccess(int32_t node, int stream) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  StreamState& st = ns.streams[static_cast<size_t>(stream)];
  FV_DCHECK(st.remaining > 0);
  Rng& rng = st.rng;
  const bool remote =
      opts_.num_nodes > 1 && opts_.remote_frac > 0 && rng.Chance(opts_.remote_frac);
  if (!remote) {
    ++ns.c.local_accesses;
    FinishAccess(node, stream);
    return;
  }
  int32_t home = static_cast<int32_t>(rng.UniformInt(0, opts_.num_nodes - 2));
  if (home >= node) {
    ++home;
  }
  const int page = static_cast<int>(rng.UniformInt(0, opts_.pages_per_node - 1));
  const int64_t gpid = static_cast<int64_t>(home) * opts_.pages_per_node + page;
  const bool is_write = opts_.write_frac > 0 && rng.Chance(opts_.write_frac);
  if (!is_write && opts_.cache_slots > 0) {
    const size_t slot = static_cast<size_t>(gpid % opts_.cache_slots);
    if (ns.cache[slot] == gpid) {
      ++ns.c.cache_hits;
      FinishAccess(node, stream);
      return;
    }
  }
  RpcLayer::CallOpts co;
  co.token = PackToken(gpid, node, stream);
  // Reliable-channel give-up: count it here and move on so the stream never
  // wedges on a lost request.
  co.on_fail = [this, node, stream] {
    ++nodes_[static_cast<size_t>(node)].c.failures;
    FinishAccess(node, stream);
  };
  if (is_write) {
    ++ns.c.remote_writes;
    rpc_->Notify(node, home, MsgKind::kDsmWriteReq, kWriteReqBytes, std::move(co));
  } else {
    ++ns.c.remote_reads;
    rpc_->Notify(node, home, MsgKind::kDsmReadReq, kReadReqBytes, std::move(co));
  }
}

void Storm::FinishAccess(int32_t node, int stream) {
  StreamState& st = nodes_[static_cast<size_t>(node)].streams[static_cast<size_t>(stream)];
  if (--st.remaining > 0) {
    NodeLoop(node)->ScheduleAfter(opts_.think_ns, [this, node, stream] { DoAccess(node, stream); });
  }
}

void Storm::InstallAndResume(int32_t node, int stream, int64_t gpid) {
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  if (opts_.cache_slots > 0) {
    const size_t slot = static_cast<size_t>(gpid % opts_.cache_slots);
    if (ns.cache[slot] >= 0 && ns.cache[slot] != gpid) {
      ++ns.c.evictions;
    }
    ns.cache[slot] = gpid;
  }
  FinishAccess(node, stream);
}

void Storm::HandleRead(const RpcLayer::Inbound& in) {
  const int32_t home = in.dst;
  const int64_t gpid = static_cast<int64_t>(in.token >> 24);
  const int32_t req = static_cast<int32_t>((in.token >> 8) & 0xffff);
  const int stream = static_cast<int>(in.token & 0xff);
  NodeState& hs = nodes_[static_cast<size_t>(home)];
  const size_t page = static_cast<size_t>(gpid % opts_.pages_per_node);
  ++hs.c.served_reads;
  // Reader tracking feeds write invalidation; with no caches (or no writes)
  // it is dead state, and skipping the update keeps the commutative
  // configuration order-independent across engines.
  if (opts_.write_frac > 0 && opts_.cache_slots > 0) {
    hs.last_reader[page] = req;
  }
  RpcLayer::CallOpts co;
  co.on_fail = [this, home] { ++nodes_[static_cast<size_t>(home)].c.failures; };
  rpc_->Call(home, req, MsgKind::kDsmPageData, kPageBytes,
             [this, req, stream, gpid] { InstallAndResume(req, stream, gpid); }, std::move(co));
}

void Storm::HandleWrite(const RpcLayer::Inbound& in) {
  const int32_t home = in.dst;
  const int64_t gpid = static_cast<int64_t>(in.token >> 24);
  const int32_t req = static_cast<int32_t>((in.token >> 8) & 0xffff);
  const int stream = static_cast<int>(in.token & 0xff);
  NodeState& hs = nodes_[static_cast<size_t>(home)];
  const size_t page = static_cast<size_t>(gpid % opts_.pages_per_node);
  ++hs.c.served_writes;
  ++hs.version[page];
  if (opts_.cache_slots > 0) {
    const int32_t reader = hs.last_reader[page];
    if (reader >= 0 && reader != req) {
      hs.last_reader[page] = -1;
      RpcLayer::CallOpts inv;
      inv.token = static_cast<uint64_t>(gpid);
      inv.on_fail = [this, home] { ++nodes_[static_cast<size_t>(home)].c.failures; };
      rpc_->Notify(home, reader, MsgKind::kDsmInvalidate, kInvBytes, std::move(inv));
    }
  }
  RpcLayer::CallOpts co;
  co.on_fail = [this, home] { ++nodes_[static_cast<size_t>(home)].c.failures; };
  rpc_->Call(home, req, MsgKind::kDsmAck, kAckBytes,
             [this, req, stream] { FinishAccess(req, stream); }, std::move(co));
}

void Storm::HandleInvalidate(const RpcLayer::Inbound& in) {
  const int32_t node = in.dst;
  const int64_t gpid = static_cast<int64_t>(in.token);
  NodeState& ns = nodes_[static_cast<size_t>(node)];
  const size_t slot = static_cast<size_t>(gpid % opts_.cache_slots);
  if (ns.cache[slot] == gpid) {
    ns.cache[slot] = -1;
    ++ns.c.invalidations;
  }
}

uint64_t Storm::Digest() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis, folded per word
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const NodeState& ns : nodes_) {
    StormCounters::Fields(mix, ns.c);
    for (const uint64_t v : ns.version) {
      mix(v);
    }
    for (const int32_t r : ns.last_reader) {
      mix(static_cast<uint64_t>(static_cast<int64_t>(r)));
    }
    for (const int64_t g : ns.cache) {
      mix(static_cast<uint64_t>(g));
    }
    for (const StreamState& st : ns.streams) {
      mix(static_cast<uint64_t>(st.remaining));
    }
  }
  return h;
}

// Fingerprint of every StormOptions field: a snapshot only loads into a run
// built from the same options.
uint64_t Storm::ConfigFingerprint() const {
  return SnapshotHashString("storm-v2\n" + OptionsText(opts_));
}

std::string Storm::Save() {
  SnapshotWriter w;
  w.BeginSection("storm.run");
  w.U64(ConfigFingerprint());
  w.U8(ploop_ != nullptr ? 1 : 0);
  SaveState(&w, progress_);
  w.BeginSection("storm.clocks");
  SaveState(&w, EngineClocks::Of(serial_.get(), ploop_.get()));
  w.BeginSection("storm.nodes");
  SaveState(&w, nodes_);
  // Per-shard transport counters: parallel runs shard stats by sending node
  // and the per-node tables are observable, so the shards round-trip
  // one-for-one (collapsing into shard 0 would survive only merged reads).
  w.BeginSection("storm.transport");
  SaveTransportShards(&w, fabric_.get(), rpc_.get());
  w.BeginSection("storm.faults");
  w.U8(plan_ != nullptr ? 1 : 0);
  if (plan_ != nullptr) {
    SaveFaultPlanState(&w, plan_.get());
  }
  return w.Finish();
}

bool Storm::Load(SnapshotReader* r) {
  RunProgress progress;
  r->Section("storm.run");
  const uint64_t fingerprint = r->U64();
  const bool parallel = r->U8() != 0;
  LoadState(r, &progress);
  if (!r->ok()) {
    return false;
  }
  if (fingerprint != ConfigFingerprint()) {
    return r->FailExternal("storm: snapshot was taken under different StormOptions");
  }
  if (parallel != (ploop_ != nullptr)) {
    return r->FailExternal(
        parallel ? "storm: snapshot was taken on the parallel engine (use --threads >= 1)"
                 : "storm: snapshot was taken on the serial engine (use --threads 0)");
  }
  if (progress.epochs < 0 || progress.epochs > opts_.epochs) {
    return r->FailExternal("storm: snapshot claims more completed epochs than the run has");
  }

  // Stage the records in the live shapes, which the options fix.
  EngineClocks clocks = EngineClocks::Of(serial_.get(), ploop_.get());
  std::vector<NodeState> nodes = nodes_;
  TransportShards transport;
  r->Section("storm.clocks");
  LoadState(r, &clocks);
  r->Section("storm.nodes");
  LoadState(r, &nodes);
  r->Section("storm.transport");
  LoadTransportShards(r, fabric_.get(), &transport);
  r->Section("storm.faults");
  const bool had_plan = r->U8() != 0;
  if (r->ok() && had_plan != (plan_ != nullptr)) {
    return r->FailExternal("storm: fault-plan presence mismatch");
  }
  if (had_plan) {
    LoadFaultPlanState(r, plan_.get());
  }
  if (!r->AtEnd()) {
    return false;
  }

  // Validate, before any loop sees the clocks: AdvanceTo treats a time
  // regression as a programming error.
  if (clocks.AnyNegative()) {
    return r->FailExternal("storm: negative virtual clock");
  }
  const int64_t pages = int64_t{opts_.num_nodes} * opts_.pages_per_node;
  for (const NodeState& ns : nodes) {
    for (const StreamState& st : ns.streams) {
      if (st.remaining < 0 || st.remaining > opts_.accesses_per_stream) {
        return r->FailExternal("storm: stream progress out of range");
      }
    }
    if (std::ranges::any_of(ns.cache, [pages](int64_t g) { return g < -1 || g >= pages; })) {
      return r->FailExternal("storm: cached page id out of range");
    }
    if (std::ranges::any_of(ns.last_reader,
                            [this](int32_t n) { return n < -1 || n >= opts_.num_nodes; })) {
      return r->FailExternal("storm: last-reader node out of range");
    }
  }

  // Commit. Rng streams inside the fault plan were restored in place above;
  // a failure past that point discards the whole Storm, so partial mutation
  // is unobservable.
  clocks.Restore(serial_.get(), ploop_.get());
  nodes_ = std::move(nodes);
  CommitTransportShards(transport, fabric_.get(), rpc_.get());
  progress_ = progress;
  return true;
}

StormResult Storm::Run(const StormRunConfig& cfg) {
  for (int e = progress_.epochs; e < opts_.epochs; ++e) {
    ScheduleEpochKickoffs();
    RunEngine();
    progress_.epochs = e + 1;
    if (cfg.snapshot_out != nullptr && progress_.epochs == cfg.snapshot_epoch) {
      *cfg.snapshot_out = Save();
    }
  }
  StormResult r;
  r.per_node.reserve(nodes_.size());
  for (const NodeState& ns : nodes_) {
    r.per_node.push_back(ns.c);
    AccumulateState(&r.totals, ns.c);
  }
  r.finish_time = ploop_ != nullptr ? ploop_->now_max() : serial_->now();
  r.events_dispatched = progress_.events;
  r.state_digest = Digest();
  r.fabric = fabric_->MergedStats();
  r.retry = fabric_->MergedRetryStats();
  r.rpc = rpc_->MergedStats();
  if (plan_ != nullptr) {
    r.faults = plan_->MergedStats();
    r.used_fault_plan = true;
  }
  r.parallel = ploop_ != nullptr;
  r.threads = threads_;
  if (ploop_ != nullptr) {
    r.core = ploop_->stats();
  }
  return r;
}

}  // namespace

const char* StormOptions::Invalid() const {
  // The node, stream and page bounds are the field widths of the request
  // token (PackToken).
  const std::pair<bool, const char*> rules[] = {
      {num_nodes < 1 || num_nodes > (1 << 16), "nodes (num_nodes) must be between 1 and 65536"},
      {streams_per_node < 1 || streams_per_node > (1 << 8),
       "streams (streams_per_node) must be between 1 and 256"},
      {accesses_per_stream < 1, "accesses (accesses_per_stream) must be at least 1"},
      {pages_per_node < 1 || int64_t{num_nodes} * pages_per_node > int64_t{1} << 40,
       "pages (pages_per_node) must be at least 1, and nodes x pages at most 2^40"},
      {cache_slots < 0, "cache_slots must be at least 0"},
      {epochs < 1, "epochs must be at least 1"},
      {think_ns < 0, "think_ns must be at least 0"},
      {latency_jitter_ns < 0, "jitter_ns (latency_jitter_ns) must be at least 0"},
  };
  for (const auto& [broken, why] : rules) {
    if (broken) {
      return why;
    }
  }
  if (const char* why = link.Invalid()) {
    return why;
  }
  return topology.Invalid();
}

StormResult RunStorm(const StormOptions& opts, int threads) {
  return RunStormEx(opts, threads, StormRunConfig{});
}

StormResult RunStormEx(const StormOptions& opts, int threads, const StormRunConfig& cfg) {
  if (cfg.snapshot_out != nullptr) {
    FV_CHECK_GE(cfg.snapshot_epoch, 1);
    FV_CHECK_LE(cfg.snapshot_epoch, opts.epochs);
  }
  Storm storm(opts, threads, cfg);
  if (cfg.snapshot_in != nullptr) {
    SnapshotReader r(*cfg.snapshot_in);
    if (!storm.Load(&r)) {
      if (cfg.error == nullptr) {
        std::fprintf(stderr, "storm snapshot load failed: %s\n", r.error().c_str());
        std::abort();
      }
      *cfg.error = r.error();
      return StormResult{};
    }
  }
  return storm.Run(cfg);
}

std::string StormReport(const StormResult& r) {
  // Deliberately engine-agnostic: no thread count, no parallel-core stats.
  // Two runs satisfy the determinism contract iff these bytes match.
  std::string out;
  out.reserve(4096 + r.per_node.size() * 96);
  const auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  const auto u = [](uint64_t v) { return std::to_string(v); };
  // events_dispatched is deliberately absent: it is worker-count-invariant
  // but not engine-invariant (the engines break equal-time ties differently,
  // so one configuration can take different protocol paths on each).
  line("finish_ns=" + std::to_string(r.finish_time));
  line("digest=" + u(r.state_digest));
  line("totals local=" + u(r.totals.local_accesses) + " cache_hits=" + u(r.totals.cache_hits) +
       " remote_reads=" + u(r.totals.remote_reads) + " remote_writes=" +
       u(r.totals.remote_writes) + " served_reads=" + u(r.totals.served_reads) +
       " served_writes=" + u(r.totals.served_writes) + " invalidations=" +
       u(r.totals.invalidations) + " evictions=" + u(r.totals.evictions) + " failures=" +
       u(r.totals.failures));
  line("fabric messages=" + u(r.fabric.total_messages.value()) + " bytes=" +
       u(r.fabric.total_bytes.value()));
  for (const MsgKind k : {MsgKind::kDsmReadReq, MsgKind::kDsmWriteReq, MsgKind::kDsmPageData,
                          MsgKind::kDsmInvalidate, MsgKind::kDsmAck}) {
    line(std::string("fabric kind=") + MsgKindName(k) + " messages=" +
         u(r.fabric.messages[static_cast<size_t>(k)].value()) + " bytes=" +
         u(r.fabric.bytes[static_cast<size_t>(k)].value()));
  }
  line("rpc calls=" + u(r.rpc.calls.value()) + " notifies=" + u(r.rpc.notifies.value()) +
       " failures=" + u(r.rpc.call_failures.value()) + " retries=" + u(r.rpc.retries.value()) +
       " abandons=" + u(r.rpc.abandons.value()));
  line("retry retransmits=" + u(r.retry.retransmits.total()) + " timeouts=" +
       u(r.retry.timeouts.total()) + " send_failures=" + u(r.retry.send_failures.total()) +
       " dups_suppressed=" + u(r.retry.dups_suppressed.total()));
  line("faults dropped=" + u(r.faults.messages_dropped.value()) + " duplicated=" +
       u(r.faults.messages_duplicated.value()) + " delayed=" +
       u(r.faults.messages_delayed.value()) + " crashes=" + u(r.faults.node_crashes.value()) +
       " restarts=" + u(r.faults.node_restarts.value()) + " cuts=" +
       u(r.faults.partitions_cut.value()) + " heals=" + u(r.faults.partitions_healed.value()));
  for (size_t n = 0; n < r.per_node.size(); ++n) {
    const StormCounters& c = r.per_node[n];
    line("node " + std::to_string(n) + " l=" + u(c.local_accesses) + " ch=" + u(c.cache_hits) +
         " rr=" + u(c.remote_reads) + " rw=" + u(c.remote_writes) + " sr=" + u(c.served_reads) +
         " sw=" + u(c.served_writes) + " inv=" + u(c.invalidations) + " ev=" + u(c.evictions) +
         " f=" + u(c.failures));
  }
  return out;
}

}  // namespace fragvisor

// Version-skew and corruption handling for the snapshot container: a bumped
// format version, a truncated stream, or a bit-flipped byte must fail with a
// descriptive error and leave the target untouched — never a partial load,
// never a crash. The fuzz cases mutate real storm, marketplace and DSM
// snapshots with a seeded RNG so every CI run exercises the same mutations.

#include <functional>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "src/cluster/marketplace.h"
#include "src/host/cost_model.h"
#include "src/mem/dsm.h"
#include "src/net/fabric.h"
#include "src/net/rpc.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/state_io.h"
#include "src/workload/dsmstorm.h"
#include "src/workload/goldentrace.h"

namespace fragvisor {
namespace {

StormOptions TinyStorm() {
  StormOptions o;
  o.num_nodes = 4;
  o.streams_per_node = 2;
  o.accesses_per_stream = 30;
  o.pages_per_node = 16;
  o.cache_slots = 4;
  o.seed = 7;
  o.epochs = 2;
  return o;
}

std::string TakeSnapshot(const StormOptions& opts) {
  std::string snapshot;
  StormRunConfig cfg;
  cfg.snapshot_out = &snapshot;
  cfg.snapshot_epoch = 1;
  RunStormEx(opts, /*threads=*/0, cfg);
  return snapshot;
}

// Re-seals a tampered payload with a fresh valid checksum, so the mutation
// reaches the semantic validation layer instead of the checksum gate.
std::string Reseal(std::string data) {
  const size_t payload = data.size() - 8;
  const uint64_t sum = SnapshotHashBytes(data.data(), payload);
  for (int i = 0; i < 8; ++i) {
    data[payload + static_cast<size_t>(i)] = static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return data;
}

// A load attempt that must fail cleanly: error out-param set, empty result.
std::string ExpectLoadFails(const StormOptions& opts, const std::string& snapshot) {
  StormRunConfig cfg;
  cfg.snapshot_in = &snapshot;
  std::string error;
  cfg.error = &error;
  const StormResult r = RunStormEx(opts, /*threads=*/0, cfg);
  EXPECT_FALSE(error.empty());
  // A refused load never partially runs: the default-constructed result has
  // no per-node state at all.
  EXPECT_TRUE(r.per_node.empty());
  EXPECT_EQ(r.totals.remote_reads, 0u);
  return error;
}

TEST(SnapshotSkew, BumpedFormatVersionRefusedWithClearError) {
  const StormOptions opts = TinyStorm();
  std::string snapshot = TakeSnapshot(opts);
  ASSERT_FALSE(snapshot.empty());
  // The version field sits right after the 8-byte magic, little-endian.
  snapshot[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  const std::string error = ExpectLoadFails(opts, Reseal(snapshot));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotSkew, TruncationsAllRefused) {
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  for (const size_t keep :
       {size_t{0}, size_t{5}, size_t{12}, size_t{60}, snapshot.size() / 2, snapshot.size() - 1}) {
    ExpectLoadFails(opts, snapshot.substr(0, keep));
  }
}

TEST(SnapshotSkew, SeededBitFlipsAllRefusedOrHarmless) {
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  const std::string want = StormReport(RunStorm(opts, 0));
  Rng rng(0xD15C0);
  for (int trial = 0; trial < 64; ++trial) {
    std::string mutated = snapshot;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    const char bit = static_cast<char>(1 << rng.UniformInt(0, 7));
    mutated[at] = static_cast<char>(mutated[at] ^ bit);
    // An unsealed flip must always trip the checksum gate.
    {
      SnapshotReader r(mutated);
      EXPECT_FALSE(r.ok()) << "flip at " << at << " slipped past the checksum";
    }
    StormRunConfig cfg;
    cfg.snapshot_in = &mutated;
    std::string error;
    cfg.error = &error;
    const StormResult r = RunStormEx(opts, /*threads=*/0, cfg);
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(r.per_node.empty());
  }
}

TEST(SnapshotSkew, ResealedSemanticCorruptionRefused) {
  // Flip payload bytes AND fix the checksum: the semantic validators (config
  // fingerprint, section tags, shape and range checks) must catch what the
  // checksum can no longer see. A flip the validators cannot distinguish
  // from real state (an RNG word, a counter) is legitimately accepted and
  // yields a different-but-complete run — the invariant under test is
  // "clean refusal or complete run, never a crash or partial load".
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  Rng rng(0xBADC0DE);
  int refused = 0;
  for (int trial = 0; trial < 48; ++trial) {
    std::string mutated = snapshot;
    // Corrupt within the payload (past the 12-byte header, before the
    // 8-byte checksum) so the header checks stay out of the picture.
    const size_t lo = 12;
    const size_t hi = mutated.size() - 9;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
    mutated[at] = static_cast<char>(mutated[at] ^ 0xff);
    mutated = Reseal(mutated);
    StormRunConfig cfg;
    cfg.snapshot_in = &mutated;
    std::string error;
    cfg.error = &error;
    const StormResult r = RunStormEx(opts, /*threads=*/0, cfg);
    if (!error.empty()) {
      ++refused;
      EXPECT_TRUE(r.per_node.empty());
    } else {
      EXPECT_EQ(r.per_node.size(), static_cast<size_t>(opts.num_nodes))
          << "accepted load did not run to completion (byte " << at << ")";
    }
  }
  EXPECT_GT(refused, 0);
}

TEST(SnapshotSkew, WrongOptionsRefused) {
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);
  StormOptions other = opts;
  other.seed += 1;
  const std::string error = ExpectLoadFails(other, snapshot);
  EXPECT_NE(error.find("StormOptions"), std::string::npos) << error;
  // Every digit of a double counts, not only six decimals.
  other = opts;
  other.remote_frac += 1e-7;
  EXPECT_NE(ExpectLoadFails(other, snapshot).find("StormOptions"), std::string::npos);
}

TEST(SnapshotSkew, WrongEngineRefused) {
  const StormOptions opts = TinyStorm();
  const std::string snapshot = TakeSnapshot(opts);  // serial-engine snapshot
  StormRunConfig cfg;
  cfg.snapshot_in = &snapshot;
  std::string error;
  cfg.error = &error;
  const StormResult r = RunStormEx(opts, /*threads=*/2, cfg);
  EXPECT_NE(error.find("serial engine"), std::string::npos) << error;
  EXPECT_TRUE(r.per_node.empty());
}

// The marketplace cases mirror the storm's on a two-wave marketplace that
// really borrows (aggregate placements, lease revocations). Every load runs
// at 2 workers, so the TSan leg covers the parallel resume path as well.
constexpr int kMarketplaceWorkers = 2;

MarketplaceOptions SmallMarketplace() {
  MarketplaceOptions mo;
  mo.num_nodes = 6;
  mo.vcpus_per_node = 4;
  mo.trace.kind = ArrivalKind::kFlash;
  mo.trace.vms = 30;
  mo.trace.max_vcpus = 8;
  mo.trace.requests_per_vcpu = 500;
  mo.epochs = 2;
  return mo;
}

std::string TakeMarketplaceSnapshot(const MarketplaceOptions& opts) {
  std::string snapshot;
  MarketplaceRunConfig cfg;
  cfg.snapshot_out = &snapshot;
  cfg.snapshot_epoch = 1;
  RunMarketplaceEx(opts, kMarketplaceWorkers, cfg);
  return snapshot;
}

MarketplaceResult LoadMarketplace(const MarketplaceOptions& opts, const std::string& snapshot,
                                  std::string* error) {
  MarketplaceRunConfig cfg;
  cfg.snapshot_in = &snapshot;
  cfg.error = error;
  return RunMarketplaceEx(opts, kMarketplaceWorkers, cfg);
}

std::string ExpectMarketplaceLoadFails(const MarketplaceOptions& opts,
                                       const std::string& snapshot) {
  std::string error;
  const MarketplaceResult r = LoadMarketplace(opts, snapshot, &error);
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(r.per_node.empty());
  EXPECT_TRUE(r.vms.empty());
  return error;
}

TEST(SnapshotSkew, MarketplaceBumpedFormatVersionRefused) {
  const MarketplaceOptions opts = SmallMarketplace();
  std::string snapshot = TakeMarketplaceSnapshot(opts);
  ASSERT_FALSE(snapshot.empty());
  snapshot[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  const std::string error = ExpectMarketplaceLoadFails(opts, Reseal(snapshot));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SnapshotSkew, MarketplaceTruncationsAllRefused) {
  const MarketplaceOptions opts = SmallMarketplace();
  const std::string snapshot = TakeMarketplaceSnapshot(opts);
  for (const size_t keep :
       {size_t{0}, size_t{5}, size_t{12}, size_t{60}, snapshot.size() / 2, snapshot.size() - 1}) {
    ExpectMarketplaceLoadFails(opts, snapshot.substr(0, keep));
  }
}

TEST(SnapshotSkew, MarketplaceSeededBitFlipsAllRefused) {
  const MarketplaceOptions opts = SmallMarketplace();
  const std::string snapshot = TakeMarketplaceSnapshot(opts);
  Rng rng(0xD15C0);
  for (int trial = 0; trial < 64; ++trial) {
    std::string mutated = snapshot;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    const char bit = static_cast<char>(1 << rng.UniformInt(0, 7));
    mutated[at] = static_cast<char>(mutated[at] ^ bit);
    {
      SnapshotReader r(mutated);
      EXPECT_FALSE(r.ok()) << "flip at " << at << " slipped past the checksum";
    }
    ExpectMarketplaceLoadFails(opts, mutated);
  }
}

TEST(SnapshotSkew, MarketplaceResealedCorruptionRefusedOrHarmless) {
  // As for the storm: a resealed flip the validators cannot tell from real
  // state (a counter, a clock, an RNG word) is accepted, and must then run
  // to a clean finish — every committed slot released, no request or VM
  // failed. Most of this payload is such state, so refusals are rare here;
  // the version, truncation and options cases pin the refusals.
  const MarketplaceOptions opts = SmallMarketplace();
  const std::string snapshot = TakeMarketplaceSnapshot(opts);
  Rng rng(0xBADC0DE);
  for (int trial = 0; trial < 48; ++trial) {
    std::string mutated = snapshot;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(12, static_cast<int64_t>(mutated.size()) - 9));
    mutated[at] = static_cast<char>(mutated[at] ^ 0xff);
    std::string error;
    const MarketplaceResult r = LoadMarketplace(opts, Reseal(mutated), &error);
    if (!error.empty()) {
      EXPECT_TRUE(r.per_node.empty());
      continue;
    }
    EXPECT_EQ(r.per_node.size(), static_cast<size_t>(opts.num_nodes))
        << "accepted load did not run to completion (byte " << at << ")";
    EXPECT_EQ(r.ledger_residue_slots, 0u) << "byte " << at;
    EXPECT_EQ(r.totals.request_failures, 0u) << "byte " << at;
    EXPECT_EQ(r.vms_failed, 0u) << "byte " << at;
  }
}

TEST(SnapshotSkew, MarketplaceWrongOptionsRefused) {
  const MarketplaceOptions opts = SmallMarketplace();
  const std::string snapshot = TakeMarketplaceSnapshot(opts);
  MarketplaceOptions other = opts;
  other.trace.seed += 1;
  EXPECT_NE(ExpectMarketplaceLoadFails(other, snapshot).find("MarketplaceOptions"),
            std::string::npos);
  other = opts;
  other.policy = "harvest";
  EXPECT_NE(ExpectMarketplaceLoadFails(other, snapshot).find("MarketplaceOptions"),
            std::string::npos);
  other = opts;
  other.trace.remote_frac += 1e-7;
  EXPECT_NE(ExpectMarketplaceLoadFails(other, snapshot).find("MarketplaceOptions"),
            std::string::npos);
  other = opts;
  other.link.one_sided_setup += 1;
  EXPECT_NE(ExpectMarketplaceLoadFails(other, snapshot).find("MarketplaceOptions"),
            std::string::npos);
}

// The DSM cases load the golden trace's round-150 snapshot into a fresh
// engine of the trace's shape (4 nodes, 10k pages, prefetch 2) and, when the
// load is accepted, run the second half of the trace's access mix on it.
using DsmMutator = std::function<void(DsmEngine::Options&)>;

const DsmMutator kFastPaths = [](DsmEngine::Options& o) {
  o.owner_hints = true;
  o.read_mostly_replication = true;
  o.adaptive_granularity = true;
  o.compress = true;
};

std::string DsmSnapshot(const DsmMutator& mutate = nullptr) {
  std::string snapshot;
  RunGoldenTrace(nullptr, mutate, true, &snapshot);
  return snapshot;
}

class DsmRig {
 public:
  static constexpr int kNodes = 4;

  explicit DsmRig(const DsmMutator& mutate = nullptr) {
    DsmEngine::Options opts;
    opts.home = 0;
    opts.num_nodes = kNodes;
    opts.read_prefetch_pages = 2;
    if (mutate) {
      mutate(opts);
    }
    dsm_ = std::make_unique<DsmEngine>(&loop_, &rpc_, &costs_, opts);
  }

  DsmEngine& dsm() { return *dsm_; }

  // The reader's error; empty when the load was accepted.
  std::string Load(const std::string& snapshot) {
    SnapshotReader r(snapshot);
    const bool loaded = dsm_->LoadState(&r);
    EXPECT_EQ(loaded, r.ok());
    if (!loaded) {
      EXPECT_EQ(dsm_->known_pages(), 0u) << "a refused load touched the engine";
    }
    return r.error();
  }

  // Rounds 150 to 300 of the trace's mix (reseed at round 200); returns the
  // pages CheckInvariants checked, which aborts on a broken directory.
  uint64_t RunSecondHalf() {
    Rng rng(0xC0FFEE);
    uint64_t retired = 0;
    for (int round = 150; round < 300; ++round) {
      for (int i = 0; i < 100; ++i) {
        const NodeId node = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
        const PageNum page = static_cast<PageNum>(rng.UniformInt(0, 9999));
        if (dsm_->Access(node, page, rng.Chance(0.35), [&retired] { ++retired; })) {
          ++retired;
        }
      }
      loop_.Run();
      if (round == 200) {
        dsm_->ReseedOwnedBy(1, 0);
      }
    }
    EXPECT_EQ(retired, 15000u) << "an access never retired";
    return dsm_->CheckInvariants();
  }

 private:
  EventLoop loop_;
  Fabric fabric_{&loop_, kNodes, LinkParams::InfiniBand56G()};
  RpcLayer rpc_{&loop_, &fabric_};
  CostModel costs_ = CostModel::Default();
  std::unique_ptr<DsmEngine> dsm_;
};

TEST(SnapshotSkew, DsmRoundTripIntoAFreshEngineRuns) {
  DsmRig rig;
  EXPECT_EQ(rig.Load(DsmSnapshot()), "");
  EXPECT_EQ(rig.RunSecondHalf(), 10000u);
}

TEST(SnapshotSkew, DsmTruncationsAllRefused) {
  const std::string snapshot = DsmSnapshot();
  for (const size_t keep :
       {size_t{0}, size_t{5}, size_t{12}, size_t{60}, snapshot.size() / 2, snapshot.size() - 1}) {
    DsmRig rig;
    EXPECT_NE(rig.Load(snapshot.substr(0, keep)), "") << "kept " << keep << " bytes";
  }
}

TEST(SnapshotSkew, DsmSeededBitFlipsAllRefused) {
  const std::string snapshot = DsmSnapshot();
  Rng rng(0xD15C0);
  for (int trial = 0; trial < 64; ++trial) {
    std::string mutated = snapshot;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[at] = static_cast<char>(mutated[at] ^ (1 << rng.UniformInt(0, 7)));
    EXPECT_FALSE(SnapshotReader(mutated).ok()) << "flip at " << at << " slipped past the checksum";
    DsmRig rig;
    EXPECT_NE(rig.Load(mutated), "") << "flip at " << at;
  }
}

TEST(SnapshotSkew, DsmWrongEngineRefused) {
  const std::string snapshot = DsmSnapshot();
  const DsmMutator others[] = {
      [](DsmEngine::Options& o) { o.num_nodes = 3; },
      [](DsmEngine::Options& o) { o.home = 1; },
      [](DsmEngine::Options& o) { o.owner_hints = true; },
      [](DsmEngine::Options& o) { o.compress = true; },
  };
  for (const DsmMutator& other : others) {
    DsmRig rig(other);
    EXPECT_NE(rig.Load(snapshot).find("different engine configuration"), std::string::npos);
  }
}

TEST(SnapshotSkew, DsmLeafIndexOutOfOrderRefused) {
  // Leaves 0 and 0x1234: the second index is a byte pattern nothing else in
  // the stream holds, so it can be found and rewound to 0.
  DsmRig saver;
  saver.dsm().SeedRange(0, 1, 0);
  saver.dsm().SeedRange(PageNum{0x1234} << 9, 1, 1);
  SnapshotWriter w;
  saver.dsm().SaveState(&w);
  std::string snapshot = w.Finish();
  const std::string index("\x34\x12\0\0\0\0\0\0", 8);
  const size_t at = snapshot.find(index);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(snapshot.rfind(index), at);
  DsmRig intact;
  EXPECT_EQ(intact.Load(snapshot), "");
  snapshot[at] = snapshot[at + 1] = 0;
  DsmRig rig;
  EXPECT_NE(rig.Load(Reseal(snapshot)).find("leaf indexes out of order"), std::string::npos);
}

TEST(SnapshotSkew, DsmHoldBoostPastTheCeilingRefused) {
  // An adaptive engine doubles a page's ownership hold only while the
  // doubled hold stays within dsm_ownership_hold_max (45 us << 3 = 360 us by
  // default). A larger boost is corruption; from 64 on, the next write grant
  // would shift the hold past the width of TimeNs.
  const DsmMutator adaptive = [](DsmEngine::Options& o) { o.adaptive_granularity = true; };
  DsmRig saver(adaptive);
  saver.dsm().SeedRange(PageNum{0x1234} << 9, 1, 1);
  SnapshotWriter w;
  saver.dsm().SaveState(&w);
  const std::string snapshot = w.Finish();
  const size_t at = snapshot.find(std::string("\x34\x12\0\0\0\0\0\0", 8));
  ASSERT_NE(at, std::string::npos);
  // The leaf record after its index: the 512-page owner, sharers and
  // hold_until images, the known bitmap, the 32-node present, writable and
  // dirty bitmaps, rm_reads, rm_writes and rm_promoted, then hold_boost and
  // the 32 idle (0xffff) stream_next entries.
  const size_t boost = at + 8 + 512 * (2 + 4 + 8) + 8 * 8 * (1 + 3 * 32) + 4 + 4 + 1;
  ASSERT_EQ(snapshot.substr(boost + 512, 64), std::string(64, '\xff'));
  ASSERT_EQ(snapshot.substr(boost, 512), std::string(512, '\0'));
  for (const size_t page : {size_t{0}, size_t{5}}) {  // a known page, an unknown one
    for (const int value : {1, 3, 4, 63, 64, 200}) {
      std::string mutated = snapshot;
      mutated[boost + page] = static_cast<char>(value);
      DsmRig rig(adaptive);
      const std::string error = rig.Load(Reseal(mutated));
      if (value <= 3) {
        EXPECT_EQ(error, "") << "page " << page << " boost " << value;
      } else {
        EXPECT_NE(error.find("hold boost past dsm_ownership_hold_max"), std::string::npos)
            << "page " << page << " boost " << value << ": " << error;
      }
    }
  }
}

// A resealed flip reaches the semantic checks. One that would break the
// directory (an owner, a sharer mask, a residency bit) must be refused; one
// the checks cannot tell from real state (a hold time, a counter) loads and
// must then run the second half to a clean CheckInvariants.
void ExpectResealedFlipsRefusedOrHarmless(const DsmMutator& mutate) {
  const std::string snapshot = DsmSnapshot(mutate);
  Rng rng(0xBADC0DE);
  int refused = 0;
  for (int trial = 0; trial < 48; ++trial) {
    std::string mutated = snapshot;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(12, static_cast<int64_t>(mutated.size()) - 9));
    mutated[at] = static_cast<char>(mutated[at] ^ 0xff);
    DsmRig rig(mutate);
    if (!rig.Load(Reseal(mutated)).empty()) {
      ++refused;
      continue;
    }
    EXPECT_EQ(rig.RunSecondHalf(), 10000u) << "byte " << at;
  }
  EXPECT_GT(refused, 0);
}

TEST(SnapshotSkew, DsmResealedCorruptionRefusedOrHarmless) {
  ExpectResealedFlipsRefusedOrHarmless(nullptr);
}

TEST(SnapshotSkew, DsmWithFastPathsResealedCorruptionRefusedOrHarmless) {
  ExpectResealedFlipsRefusedOrHarmless(kFastPaths);
}

}  // namespace
}  // namespace fragvisor

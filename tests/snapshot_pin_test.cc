// Pins the bytes of whole-sim snapshots (DESIGN.md §10): the FNV-1a hash of
// what each saver writes. The round-trip and skew tests prove that a snapshot
// reads back; these prove that its wire layout has not moved, which is what
// lets kSnapshotFormatVersion stay put. The storm and cluster configurations
// are those of `fvsim storm|cluster ... --snapshot-save F --snapshot-epoch 1`,
// so each pin is also the hash of that file.

#include <string>

#include "gtest/gtest.h"
#include "src/cluster/marketplace.h"
#include "src/sim/options_text.h"
#include "src/sim/snapshot.h"
#include "src/workload/dsmstorm.h"
#include "src/workload/goldentrace.h"

namespace fragvisor {
namespace {

constexpr char kStorm[] = "nodes=16\nstreams=3\naccesses=200\nepochs=2\n";
constexpr char kStormFaults[] = "fault_drop=0.02\nfault_crash=5@0.25\n";
constexpr char kCluster[] = "nodes=16\nvms=40\ntrace=flash\nepochs=2\n";
constexpr char kClusterFaults[] = "fault_drop=0.02\nfault_crash=3@5\n";

template <typename Options>
Options Read(const std::string& text) {
  Options opts;
  KeyValues kv;
  std::string error;
  EXPECT_TRUE(KeyValues::FromText(text, &kv, &error)) << error;
  ReadOptions(kv, opts);
  EXPECT_TRUE(kv.Check(&error)) << error;
  return opts;
}

// Hash of the snapshot a run saves once its first epoch (wave) has drained.
template <typename RunConfig, typename Options, typename RunFn>
uint64_t SnapshotHash(const Options& opts, int threads, RunFn run) {
  std::string snapshot;
  RunConfig cfg;
  cfg.snapshot_out = &snapshot;
  cfg.snapshot_epoch = 1;
  run(opts, threads, cfg);
  EXPECT_FALSE(snapshot.empty());
  return SnapshotHashString(snapshot);
}

uint64_t StormHash(const std::string& text, int threads) {
  return SnapshotHash<StormRunConfig>(Read<StormOptions>(text), threads, RunStormEx);
}

uint64_t ClusterHash(const std::string& text, int threads) {
  return SnapshotHash<MarketplaceRunConfig>(Read<MarketplaceOptions>(text), threads,
                                            RunMarketplaceEx);
}

TEST(SnapshotPinTest, SerialStorm) { EXPECT_EQ(StormHash(kStorm, 0), 0xd78c944c2cddc751ull); }

TEST(SnapshotPinTest, FaultedStormOnTwoWorkers) {
  EXPECT_EQ(StormHash(std::string(kStorm) + kStormFaults, 2), 0x0b78f93584835b7eull);
}

TEST(SnapshotPinTest, CleanMarketplace) {
  EXPECT_EQ(ClusterHash(kCluster, 2), 0x7fc956dada1ac7b3ull);
}

TEST(SnapshotPinTest, FaultedMarketplace) {
  EXPECT_EQ(ClusterHash(std::string(kCluster) + kClusterFaults, 2), 0x134ef008fd150119ull);
}

// The two configurations above place every VM whole, so their lease
// counters are all zero; this one borrows (17 leases granted by the end).
TEST(SnapshotPinTest, BorrowingFaultedMarketplace) {
  const std::string borrowing = "nodes=16\nvcpus_per_node=4\nvms=60\ntrace=flash\nepochs=2\n";
  EXPECT_EQ(ClusterHash(borrowing + kClusterFaults, 2), 0x88aa2a7e32ebcc56ull);
}

TEST(SnapshotPinTest, DsmEngineAtGoldenTraceMidpoint) {
  std::string snapshot;
  const GoldenTraceResult r = RunGoldenTrace(nullptr, nullptr, true, &snapshot);
  EXPECT_EQ(GoldenTraceHash(r), kGoldenBaselineHash);
  EXPECT_EQ(SnapshotHashString(snapshot), 0x900f0b192592f14dull);
}

// The default engine above leaves the owner-hint and version tables empty;
// these fast paths fill both.
TEST(SnapshotPinTest, DsmEngineWithFastPaths) {
  const auto fast_paths = [](DsmEngine::Options& o) {
    o.owner_hints = true;
    o.read_mostly_replication = true;
    o.adaptive_granularity = true;
    o.compress = true;
  };
  std::string snapshot;
  const GoldenTraceResult r = RunGoldenTrace(nullptr, fast_paths, true, &snapshot);
  EXPECT_EQ(GoldenTraceHash(r), 0x8cb5b12205bdfe9aull);
  EXPECT_EQ(GoldenTraceHash(RunGoldenTrace(nullptr, fast_paths)), 0x8cb5b12205bdfe9aull);
  EXPECT_EQ(snapshot.size(), 1039160u);
  EXPECT_EQ(SnapshotHashString(snapshot), 0xa3640a003a54ac40ull);
}

}  // namespace
}  // namespace fragvisor

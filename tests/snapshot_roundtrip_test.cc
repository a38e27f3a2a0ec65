// Whole-sim snapshot round trip (DESIGN.md §10): save mid-run at an epoch
// boundary, load into a FRESH engine instance, continue — the resumed run's
// StormReport() must be byte-identical to the uninterrupted run's, on the
// serial engine and on the parallel engine at several worker counts, with
// and without an armed fault plan. In-process fresh-instance restore is the
// tier-1 approximation of a fresh process; ci.sh additionally round-trips
// through two separate fvsim processes.

#include <string>

#include "gtest/gtest.h"
#include "src/net/capture.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

StormOptions SmallStorm() {
  StormOptions o;
  o.num_nodes = 8;
  o.streams_per_node = 3;
  o.accesses_per_stream = 60;
  o.pages_per_node = 32;
  o.cache_slots = 8;
  o.remote_frac = 0.7;
  o.write_frac = 0.3;
  o.seed = 42;
  o.epochs = 3;
  return o;
}

StormOptions FaultyStorm() {
  StormOptions o = SmallStorm();
  o.faults.link = {.drop_prob = 0.02, .dup_prob = 0.01, .extra_delay_max = Micros(3)};
  o.faults.crashes = {{2, Micros(150)}};
  o.faults.restarts = {{2, Micros(400)}};
  return o;
}

// Reference run, then save-at-epoch + fresh-instance resume, at one worker
// count. Returns the resumed report for cross-checks.
std::string RoundTrip(const StormOptions& opts, int threads, int snapshot_epoch) {
  const StormResult reference = RunStorm(opts, threads);
  const std::string want = StormReport(reference);

  std::string snapshot;
  StormRunConfig save_cfg;
  save_cfg.snapshot_out = &snapshot;
  save_cfg.snapshot_epoch = snapshot_epoch;
  const StormResult saver = RunStormEx(opts, threads, save_cfg);
  // The saving run itself continues to completion and matches too.
  EXPECT_EQ(want, StormReport(saver));
  EXPECT_FALSE(snapshot.empty());

  StormRunConfig load_cfg;
  load_cfg.snapshot_in = &snapshot;
  std::string error;
  load_cfg.error = &error;
  const StormResult resumed = RunStormEx(opts, threads, load_cfg);
  EXPECT_EQ(error, "");
  const std::string got = StormReport(resumed);
  EXPECT_EQ(want, got);
  return got;
}

TEST(SnapshotRoundtrip, SerialByteIdentical) {
  RoundTrip(SmallStorm(), /*threads=*/0, /*snapshot_epoch=*/1);
  RoundTrip(SmallStorm(), /*threads=*/0, /*snapshot_epoch=*/2);
}

TEST(SnapshotRoundtrip, ParallelByteIdenticalAcrossWorkerCounts) {
  const std::string one = RoundTrip(SmallStorm(), /*threads=*/1, /*snapshot_epoch=*/2);
  const std::string four = RoundTrip(SmallStorm(), /*threads=*/4, /*snapshot_epoch=*/2);
  // The determinism contract holds through the snapshot path too: worker
  // count changes nothing, including across the save/load boundary.
  EXPECT_EQ(one, four);
}

TEST(SnapshotRoundtrip, SaveOnOneWorkerCountLoadOnAnother) {
  const StormOptions opts = SmallStorm();
  const std::string want = StormReport(RunStorm(opts, 0));

  std::string snapshot;
  StormRunConfig save_cfg;
  save_cfg.snapshot_out = &snapshot;
  save_cfg.snapshot_epoch = 1;
  RunStormEx(opts, /*threads=*/1, save_cfg);

  StormRunConfig load_cfg;
  load_cfg.snapshot_in = &snapshot;
  std::string error;
  load_cfg.error = &error;
  const StormResult resumed = RunStormEx(opts, /*threads=*/4, load_cfg);
  EXPECT_EQ(error, "");
  // Parallel-engine snapshots load at any worker count; the report equals the
  // serial reference because this configuration's report is engine-invariant
  // only per engine — compare against the parallel reference instead.
  EXPECT_EQ(StormReport(RunStorm(opts, 1)), StormReport(resumed));
  (void)want;
}

TEST(SnapshotRoundtrip, UnderArmedFaultPlan) {
  RoundTrip(FaultyStorm(), /*threads=*/0, /*snapshot_epoch=*/1);
  RoundTrip(FaultyStorm(), /*threads=*/1, /*snapshot_epoch=*/1);
  RoundTrip(FaultyStorm(), /*threads=*/4, /*snapshot_epoch=*/2);
}

TEST(SnapshotRoundtrip, ResumedParallelRunCountsTheSameEvents) {
  const StormOptions opts = FaultyStorm();
  const StormResult reference = RunStorm(opts, /*threads=*/2);
  std::string snapshot;
  StormRunConfig save_cfg;
  save_cfg.snapshot_out = &snapshot;
  save_cfg.snapshot_epoch = 1;
  RunStormEx(opts, /*threads=*/2, save_cfg);

  StormRunConfig load_cfg;
  load_cfg.snapshot_in = &snapshot;
  std::string error;
  load_cfg.error = &error;
  const StormResult resumed = RunStormEx(opts, /*threads=*/2, load_cfg);
  ASSERT_EQ(error, "");
  EXPECT_EQ(resumed.events_dispatched, reference.events_dispatched);
}

TEST(SnapshotRoundtrip, CaptureOfResumedRunMatchesSuffix) {
  // A resumed run's capture holds exactly the post-boundary deliveries: its
  // canonical log must be a suffix-consistent subset of the full run's (same
  // records at the same times past the boundary).
  const StormOptions opts = SmallStorm();
  CaptureLog full(opts.num_nodes);
  StormRunConfig full_cfg;
  full_cfg.capture = &full;
  std::string snapshot;
  full_cfg.snapshot_out = &snapshot;
  full_cfg.snapshot_epoch = 2;
  RunStormEx(opts, /*threads=*/0, full_cfg);

  CaptureLog tail(opts.num_nodes);
  StormRunConfig tail_cfg;
  tail_cfg.capture = &tail;
  tail_cfg.snapshot_in = &snapshot;
  std::string error;
  tail_cfg.error = &error;
  RunStormEx(opts, /*threads=*/0, tail_cfg);
  ASSERT_EQ(error, "");

  const auto full_records = full.Canonical();
  const auto tail_records = tail.Canonical();
  ASSERT_FALSE(tail_records.empty());
  ASSERT_LT(tail_records.size(), full_records.size());
  // Every tail record appears verbatim at the end of the full log, modulo
  // the per-src sequence numbers restarting at the boundary.
  const size_t offset = full_records.size() - tail_records.size();
  for (size_t i = 0; i < tail_records.size(); ++i) {
    const CaptureRecord& a = full_records[offset + i];
    const CaptureRecord& b = tail_records[i];
    EXPECT_EQ(a.time, b.time) << "record " << i;
    EXPECT_EQ(a.src, b.src) << "record " << i;
    EXPECT_EQ(a.dst, b.dst) << "record " << i;
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.payload_hash, b.payload_hash) << "record " << i;
  }
}

TEST(SnapshotRoundtrip, EpochsDefaultUnchanged) {
  // epochs == 1 must reproduce the historical single-shot storm exactly:
  // the epoch machinery is pure refactoring for existing configurations.
  StormOptions o = SmallStorm();
  o.epochs = 1;
  const StormResult serial = RunStorm(o, 0);
  EXPECT_GT(serial.totals.remote_reads, 0u);
  EXPECT_EQ(StormReport(RunStorm(o, 2)), StormReport(RunStorm(o, 4)));
}

}  // namespace
}  // namespace fragvisor

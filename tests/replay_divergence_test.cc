// Fabric record/replay divergence detection (tier 2, FV_FAULT_SEED-swept).
//
// The capture log is the replay oracle: a clean re-run of the same
// configuration must diff against the recording with ZERO mismatches, and a
// recording with exactly one corrupted record must make CaptureDiverge()
// point at exactly that record — same index, and the reported (time, src,
// dst) triple identifies the tampered delivery. The corruptions are drawn
// from a seeded RNG over a faulty storm (drops, dups, delays, a crash), so
// every CI seed sweeps different records and different fields.

#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/capture.h"
#include "src/sim/rng.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("FV_FAULT_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::atoll(env)) : 1;
}

StormOptions ReplayStorm(uint64_t seed) {
  StormOptions o;
  o.num_nodes = 10;
  o.streams_per_node = 3;
  o.accesses_per_stream = 50;
  o.pages_per_node = 32;
  o.cache_slots = 8;
  o.seed = seed;
  o.epochs = 2;
  o.faults.link = {.drop_prob = 0.02, .dup_prob = 0.01, .extra_delay_max = Micros(2)};
  o.faults.crashes = {{4, Micros(200)}};
  o.faults.restarts = {{4, Micros(500)}};
  return o;
}

std::vector<CaptureRecord> CaptureRun(const StormOptions& opts, int threads) {
  CaptureLog log(opts.num_nodes);
  StormRunConfig cfg;
  cfg.capture = &log;
  RunStormEx(opts, threads, cfg);
  return log.Canonical();
}

TEST(ReplayDivergence, CleanLogsReplayWithZeroDiffs) {
  const StormOptions opts = ReplayStorm(BaseSeed());
  for (const int threads : {0, 1, 3}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::vector<CaptureRecord> recorded = CaptureRun(opts, threads);
    ASSERT_FALSE(recorded.empty());
    const std::vector<CaptureRecord> replayed = CaptureRun(opts, threads);
    EXPECT_EQ(CaptureDiverge(recorded, replayed), -1);
  }
  // Worker count is not part of the oracle: a serial recording replays
  // clean on the serial engine only, but any parallel worker count replays
  // any other parallel recording of the same options.
  EXPECT_EQ(CaptureDiverge(CaptureRun(opts, 1), CaptureRun(opts, 4)), -1);
}

TEST(ReplayDivergence, SingleCorruptedRecordPinpointedExactly) {
  const StormOptions opts = ReplayStorm(BaseSeed());
  const std::vector<CaptureRecord> recorded = CaptureRun(opts, 0);
  ASSERT_GT(recorded.size(), 16u);
  const std::vector<CaptureRecord> replayed = CaptureRun(opts, 0);

  Rng rng(BaseSeed() * 0x9E3779B97F4A7C15ull + 1);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<CaptureRecord> tampered = recorded;
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(tampered.size()) - 1));
    CaptureRecord& rec = tampered[at];
    switch (rng.UniformInt(0, 3)) {
      case 0:
        rec.time += 1;
        break;
      case 1:
        rec.dst = (rec.dst + 1) % opts.num_nodes;
        break;
      case 2:
        rec.payload_hash ^= 0xDEADBEEFull;
        break;
      default:
        rec.kind = static_cast<uint8_t>(rec.kind + 1);
        break;
    }
    // The diff points at exactly the tampered index — not merely "somewhere
    // after it" — because every earlier record still matches.
    ASSERT_EQ(CaptureDiverge(tampered, replayed), static_cast<int64_t>(at));
    // And the reported pair identifies the tampered delivery: the recorded
    // side is the corrupted record, the live side the true one.
    EXPECT_NE(tampered[at], replayed[at]);
    EXPECT_EQ(replayed[at].time, recorded[at].time);
    EXPECT_EQ(replayed[at].src, recorded[at].src);
    EXPECT_EQ(replayed[at].dst, recorded[at].dst);
    EXPECT_FALSE(CaptureLog::Describe(tampered[at]).empty());
  }
}

TEST(ReplayDivergence, MissingAndExtraTailRecordsAreFlagged) {
  const StormOptions opts = ReplayStorm(BaseSeed());
  const std::vector<CaptureRecord> recorded = CaptureRun(opts, 0);
  ASSERT_GT(recorded.size(), 2u);

  std::vector<CaptureRecord> shorter = recorded;
  shorter.pop_back();
  // The live run has one delivery the truncated recording lacks: the diff
  // lands on the first absent index.
  EXPECT_EQ(CaptureDiverge(shorter, recorded),
            static_cast<int64_t>(shorter.size()));
  EXPECT_EQ(CaptureDiverge(recorded, shorter),
            static_cast<int64_t>(shorter.size()));
}

TEST(ReplayDivergence, SerializedLogRoundTripsExactly) {
  const StormOptions opts = ReplayStorm(BaseSeed());
  CaptureLog log(opts.num_nodes);
  StormRunConfig cfg;
  cfg.capture = &log;
  RunStormEx(opts, /*threads=*/0, cfg);

  const std::string config_blob = "workload=storm\nseed=" + std::to_string(opts.seed) + "\n";
  const std::string wire = log.Serialize(config_blob);

  std::string blob;
  std::vector<CaptureRecord> loaded;
  std::string error;
  ASSERT_TRUE(CaptureLog::Deserialize(wire, &blob, &loaded, &error)) << error;
  EXPECT_EQ(blob, config_blob);
  EXPECT_EQ(CaptureDiverge(log.Canonical(), loaded), -1);
}

}  // namespace
}  // namespace fragvisor

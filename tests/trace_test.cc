#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/fragvisor.h"
#include "src/sim/snapshot.h"
#include "src/sim/trace.h"
#include "src/workload/workload.h"

namespace fragvisor {
namespace {

TEST(TracerTest, RecordsEnabledCategoriesOnly) {
  Tracer tracer(16);
  tracer.Enable(TraceCategory::kDsm);
  tracer.Record(Micros(1), TraceCategory::kDsm, "fault", "page=1");
  tracer.Record(Micros(2), TraceCategory::kIo, "doorbell", "q=0");
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].event, "fault");
  EXPECT_EQ(events[0].detail, "page=1");
  EXPECT_EQ(events[0].time, Micros(1));
}

TEST(TracerTest, MaskCombinations) {
  Tracer tracer;
  tracer.Enable(TraceCategory::kDsm | TraceCategory::kMigration);
  EXPECT_TRUE(tracer.enabled(TraceCategory::kDsm));
  EXPECT_TRUE(tracer.enabled(TraceCategory::kMigration));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kIo));
  tracer.Enable(TraceCategory::kAll);
  EXPECT_TRUE(tracer.enabled(TraceCategory::kCkpt));
}

TEST(TracerTest, RingKeepsMostRecent) {
  Tracer tracer(4);
  tracer.Enable(TraceCategory::kAll);
  for (int i = 0; i < 10; ++i) {
    tracer.Record(Micros(i), TraceCategory::kVcpu, "tick", std::to_string(i));
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().detail, "6");
  EXPECT_EQ(events.back().detail, "9");
  // Chronological order preserved across the wrap.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].time, events[i].time);
  }
}

TEST(TracerTest, ClearResets) {
  Tracer tracer(4);
  tracer.Enable(TraceCategory::kAll);
  tracer.Record(1, TraceCategory::kDsm, "x", "");
  tracer.Clear();
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TracerTest, CategoryNames) {
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kDsm), "dsm");
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kMigration), "migration");
  EXPECT_STREQ(TraceCategoryName(TraceCategory::kDsm | TraceCategory::kIo), "multi");
}

TEST(TracerTest, EventLoopTraceIsNoOpWithoutTracer) {
  EventLoop loop;
  Tracer tracer;
  tracer.Enable(TraceCategory::kMigration);
  loop.Trace(TraceCategory::kDsm, "fault", "should not crash");
  EXPECT_EQ(loop.tracer(), nullptr);
  EXPECT_EQ(tracer.recorded(), 0u);

  // Attached, but the mask excludes the category: still nothing recorded.
  loop.set_tracer(&tracer);
  loop.Trace(TraceCategory::kDsm, "fault_resolved", "node=", 3, " latency_us=", 46.612);
  EXPECT_EQ(tracer.recorded(), 0u);

  // Enabled: the parts give exactly the text of the equivalent
  // std::to_string concatenation.
  tracer.Enable(TraceCategory::kDsm);
  loop.Trace(TraceCategory::kDsm, "fault_resolved", "node=", 3, " page=", PageNum{1} << 40,
             " latency_us=", 46.612, " n=", -2, " tok=", uint64_t{1} << 63);
  const std::string want = "node=" + std::to_string(3) + " page=" +
                           std::to_string(PageNum{1} << 40) + " latency_us=" +
                           std::to_string(46.612) + " n=" + std::to_string(-2) + " tok=" +
                           std::to_string(uint64_t{1} << 63);
  ASSERT_EQ(tracer.recorded(), 1u);
  const auto events = tracer.Snapshot();
  EXPECT_STREQ(events[0].event, "fault_resolved");
  EXPECT_EQ(events[0].detail, want);
}

TEST(TracerTest, DsmAndMigrationInstrumentationFires) {
  Cluster::Config cc;
  cc.num_nodes = 2;
  Cluster cluster(cc);
  Tracer tracer;
  tracer.Enable(TraceCategory::kDsm | TraceCategory::kMigration);
  cluster.loop().set_tracer(&tracer);

  AggregateVmConfig config;
  config.placement = DistributedPlacement(2);
  AggregateVm vm(&cluster, config);
  const PageNum page = vm.space().AllocHeapRange(1, 0);
  vm.SetWorkload(0, std::make_unique<ScriptedStream>(std::vector<Op>{Op::Compute(Millis(5))}));
  vm.SetWorkload(1, std::make_unique<ScriptedStream>(std::vector<Op>{Op::MemWrite(page)}));
  vm.Boot();
  cluster.loop().RunFor(Millis(1));
  bool migrated = false;
  vm.MigrateVcpu(0, 1, 1, [&]() { migrated = true; });
  RunUntilVmDone(cluster, vm, Seconds(10));
  ASSERT_TRUE(migrated);

  int faults = 0;
  int resolved = 0;
  int migration_events = 0;
  std::string first_fault;
  std::string first_resolved;
  // The whole stream, byte for byte: any change to an event's time,
  // category, name or detail text moves its hash.
  std::string stream;
  for (const TraceEvent& ev : tracer.Snapshot()) {
    stream += std::to_string(ev.time) + ' ' + std::to_string(ev.category) + ' ' + ev.event +
              ' ' + ev.detail + '\n';
    if (std::string(ev.event) == "write_fault") {
      if (faults++ == 0) {
        first_fault = ev.detail;
      }
    } else if (std::string(ev.event) == "fault_resolved") {
      if (resolved++ == 0) {
        first_resolved = ev.detail;
      }
    } else if (ev.category == TraceCategory::kMigration) {
      ++migration_events;
    }
  }
  EXPECT_GE(faults, 1);
  EXPECT_EQ(faults, resolved);
  EXPECT_EQ(migration_events, 2);  // start + done
  EXPECT_EQ(SnapshotHashString(stream), 3752410238887672929ull) << stream;
  EXPECT_EQ(first_fault, "node=1 page=133760 class=guest_private");
  EXPECT_EQ(first_resolved, "node=1 page=133760 latency_us=45.103000");
}

}  // namespace
}  // namespace fragvisor

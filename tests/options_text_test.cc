// The options codec (src/sim/options_text.h): fault lists keep fractional
// milliseconds and every entry, bad input is refused by key, and an options
// struct's text reads back to the same text.

#include "src/sim/options_text.h"

#include <string>

#include "gtest/gtest.h"
#include "src/cluster/marketplace.h"
#include "src/workload/dsmstorm.h"

namespace fragvisor {
namespace {

// Reads "key=value" lines into `opts`; false with `error` set if refused.
template <typename Options>
bool ReadText(const std::string& text, Options* opts, std::string* error) {
  KeyValues kv;
  if (!KeyValues::FromText(text, &kv, error)) {
    return false;
  }
  ReadOptions(kv, *opts);
  return kv.Check(error);
}

// OptionsText(opts) read into a default struct must write the same text.
template <typename Options>
void ExpectRoundTrip(const Options& opts) {
  const std::string text = OptionsText(opts);
  Options back;
  std::string error;
  ASSERT_TRUE(ReadText(text, &back, &error)) << error << "\n" << text;
  EXPECT_EQ(OptionsText(back), text);
}

TEST(OptionsTextTest, FractionalMillisecondsRoundToTheNanosecond) {
  StormOptions so;
  std::string error;
  ASSERT_TRUE(ReadText("fault_crash=3@0.5\nfault_partition=1-4@0.05-0.3\nfault_delay_us=2.5\n",
                       &so, &error))
      << error;
  ASSERT_EQ(so.faults.crashes.size(), 1u);
  EXPECT_EQ(so.faults.crashes[0].node, 3);
  EXPECT_EQ(so.faults.crashes[0].at, 500000);
  ASSERT_EQ(so.faults.partitions.size(), 1u);
  EXPECT_EQ(so.faults.partitions[0].a, 1);
  EXPECT_EQ(so.faults.partitions[0].b, 4);
  EXPECT_EQ(so.faults.partitions[0].from, 50000);
  EXPECT_EQ(so.faults.partitions[0].until, 300000);
  EXPECT_EQ(so.faults.link.extra_delay_max, 2500);
}

TEST(OptionsTextTest, FaultListsKeepEveryEntry) {
  StormOptions so;
  std::string error;
  ASSERT_TRUE(ReadText("fault_crash=3@0.1,4@0.1\nfault_restart=3@1,4@2\n", &so, &error)) << error;
  ASSERT_EQ(so.faults.crashes.size(), 2u);
  EXPECT_EQ(so.faults.crashes[1].node, 4);
  ASSERT_EQ(so.faults.restarts.size(), 2u);
  EXPECT_EQ(so.faults.restarts[1].at, Millis(2));
}

TEST(OptionsTextTest, MalformedValueRefusedByKey) {
  StormOptions so;
  std::string error;
  EXPECT_FALSE(ReadText("fault_crash=3@x\n", &so, &error));
  EXPECT_NE(error.find("fault_crash"), std::string::npos) << error;
  EXPECT_TRUE(so.faults.crashes.empty());
  EXPECT_FALSE(ReadText("nodes=12x\n", &so, &error));
  EXPECT_NE(error.find("nodes"), std::string::npos) << error;
}

TEST(OptionsTextTest, UnknownKeyRefused) {
  StormOptions so;
  std::string error;
  EXPECT_FALSE(ReadText("nodes=12\nthread=4\n", &so, &error));
  EXPECT_NE(error.find("thread"), std::string::npos) << error;
}

TEST(OptionsTextTest, StormTextRoundTrips) {
  ExpectRoundTrip(StormOptions{});
  StormOptions so;
  so.num_nodes = 12;
  so.remote_frac = 0.35 + 1e-7;
  so.think_ns = 1234;
  so.seed = ~uint64_t{0};
  so.link.bytes_per_second = 7e9 / 3;
  so.topology = TopologyConfig::FatTree(4, 2.5, 2);
  so.faults.link = {.drop_prob = 0.02, .dup_prob = 0.01, .extra_delay_max = 2500};
  so.faults.crashes = {{3, 123457}, {5, Millis(2)}};
  so.faults.restarts = {{3, 1}};
  so.faults.partitions = {{1, 4, 50000, 300001}};
  ExpectRoundTrip(so);
  StormOptions back;
  std::string error;
  ASSERT_TRUE(ReadText(OptionsText(so), &back, &error)) << error;
  EXPECT_EQ(back.remote_frac, so.remote_frac);
  EXPECT_EQ(back.seed, so.seed);
  EXPECT_EQ(back.faults.crashes[0].at, 123457);
  EXPECT_EQ(back.faults.partitions[0].until, 300001);
}

TEST(OptionsTextTest, MarketplaceTextRoundTrips) {
  ExpectRoundTrip(MarketplaceOptions{});
  MarketplaceOptions mo;
  mo.mem_per_node = (48ull << 30) + 1;
  mo.trace.kind = ArrivalKind::kFlash;
  mo.trace.span = Micros(1500);
  mo.trace.remote_frac = 0.35 + 1e-7;
  mo.policy = "harvest";
  mo.reclamation = false;
  mo.link.one_sided_setup = 701;
  mo.rdma_read = true;
  mo.fault_seed = 0x9e3779b97f4a7c15ull;
  mo.faults.crashes = {{0, Micros(6600)}};
  mo.failover.fail_phi = 7.5;
  ExpectRoundTrip(mo);
  MarketplaceOptions back;
  std::string error;
  ASSERT_TRUE(ReadText(OptionsText(mo), &back, &error)) << error;
  EXPECT_EQ(back.mem_per_node, mo.mem_per_node);
  EXPECT_EQ(back.trace.kind, ArrivalKind::kFlash);
  EXPECT_EQ(back.fault_seed, mo.fault_seed);
}

}  // namespace
}  // namespace fragvisor

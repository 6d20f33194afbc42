// Statistical validation of the synthetic CRAWDAD stand-in against the
// paper's published aggregates (Figs. 3 and 4). Tolerances are generous —
// these are stochastic targets — but tight enough that a regression in the
// behaviour model trips them.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/scenario_presets.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "trace/analysis.h"
#include "trace/flow_ops.h"
#include "trace/synthetic_crawdad.h"
#include "util/error.h"
#include "util/units.h"

namespace insomnia::trace {
namespace {

class SyntheticTraceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticTraceConfig config;
    sim::Random rng(1234);
    flows_ = new FlowTrace(SyntheticCrawdadGenerator(config).generate(rng));
    homes_ = new std::vector<int>(
        topo::assign_homes_balanced(config.client_count, 40, rng));
  }
  static void TearDownTestSuite() {
    delete flows_;
    delete homes_;
    flows_ = nullptr;
    homes_ = nullptr;
  }

  static FlowTrace* flows_;
  static std::vector<int>* homes_;
};

FlowTrace* SyntheticTraceFixture::flows_ = nullptr;
std::vector<int>* SyntheticTraceFixture::homes_ = nullptr;

TEST_F(SyntheticTraceFixture, FlowsAreSortedByTime) {
  EXPECT_TRUE(std::is_sorted(flows_->begin(), flows_->end(),
                             [](const FlowRecord& a, const FlowRecord& b) {
                               return a.start_time < b.start_time;
                             }));
}

TEST_F(SyntheticTraceFixture, AllRecordsWellFormed) {
  for (const FlowRecord& f : *flows_) {
    ASSERT_GE(f.start_time, 0.0);
    ASSERT_LT(f.start_time, 86400.0);
    ASSERT_GE(f.client, 0);
    ASSERT_LT(f.client, 272);
    ASSERT_GT(f.bytes, 0.0);
  }
}

TEST_F(SyntheticTraceFixture, PeakUtilizationMatchesFig3) {
  const auto util = hourly_gateway_utilization(*flows_, *homes_, 40, util::mbps(6.0));
  const double peak = *std::max_element(util.begin(), util.end());
  // Fig. 3 peaks around 7 %; accept the 4-10 % band.
  EXPECT_GT(peak, 0.04);
  EXPECT_LT(peak, 0.10);
}

TEST_F(SyntheticTraceFixture, NightUtilizationIsLow) {
  const auto util = hourly_gateway_utilization(*flows_, *homes_, 40, util::mbps(6.0));
  for (int h = 1; h <= 5; ++h) EXPECT_LT(util[static_cast<std::size_t>(h)], 0.015);
}

TEST_F(SyntheticTraceFixture, DiurnalContrastIsStrong) {
  const auto util = hourly_gateway_utilization(*flows_, *homes_, 40, util::mbps(6.0));
  const double peak = *std::max_element(util.begin(), util.end());
  const double night = util[3];
  EXPECT_GT(peak / std::max(night, 1e-6), 5.0);
}

TEST_F(SyntheticTraceFixture, MostIdleTimeInShortGapsAtPeak) {
  const auto packets =
      SyntheticCrawdadGenerator::expand_to_packets(*flows_, util::mbps(6.0));
  const auto hist = inter_packet_gap_idle_histogram(packets, *homes_, 40,
                                                    util::hours(16.0), util::hours(17.0));
  // §2.4: "for more than 80 % of the time the inter-packet gaps are lower
  // than 60 s" despite ~1 % utilization.
  EXPECT_GT(idle_fraction_below(hist, 60.0), 0.80);
}

TEST_F(SyntheticTraceFixture, KeepAlivesDominateFlowCount) {
  // Continuous light traffic: most records are small keep-alives.
  std::size_t small = 0;
  for (const FlowRecord& f : *flows_) {
    if (f.bytes < 1000.0) ++small;
  }
  EXPECT_GT(static_cast<double>(small) / static_cast<double>(flows_->size()), 0.5);
}

TEST_F(SyntheticTraceFixture, FlowSizesAreHeavyTailed) {
  double total = 0.0;
  std::vector<double> sizes;
  for (const FlowRecord& f : *flows_) {
    total += f.bytes;
    sizes.push_back(f.bytes);
  }
  std::sort(sizes.begin(), sizes.end(), std::greater<>());
  double top1 = 0.0;
  for (std::size_t i = 0; i < sizes.size() / 100; ++i) top1 += sizes[i];
  // The top 1 % of records carry a grossly disproportionate share of the
  // bytes (most records are keep-alives of a few hundred bytes).
  EXPECT_GT(top1 / total, 0.35);
}

TEST(SyntheticTrace, DeterministicGivenSeed) {
  SyntheticTraceConfig config;
  config.client_count = 20;
  SyntheticCrawdadGenerator generator(config);
  sim::Random a(7);
  sim::Random b(7);
  const FlowTrace ta = generator.generate(a);
  const FlowTrace tb = generator.generate(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_DOUBLE_EQ(ta[i].start_time, tb[i].start_time);
    EXPECT_EQ(ta[i].client, tb[i].client);
    EXPECT_DOUBLE_EQ(ta[i].bytes, tb[i].bytes);
  }
}

TEST(SyntheticTrace, BucketPassMatchesStableSortForEveryPreset) {
  const auto by_time = [](const FlowRecord& a, const FlowRecord& b) {
    return a.start_time < b.start_time;
  };
  const auto expect_bucket_pass_matches = [&](const FlowTrace& input, double duration) {
    FlowTrace expected = input;
    std::stable_sort(expected.begin(), expected.end(), by_time);
    const FlowTrace actual = sort_by_start_time(input, duration);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i].start_time, expected[i].start_time) << "record " << i;
      ASSERT_EQ(actual[i].client, expected[i].client) << "record " << i;
      ASSERT_EQ(actual[i].bytes, expected[i].bytes) << "record " << i;
    }
  };
  for (const core::ScenarioPreset& preset : core::scenario_presets()) {
    SCOPED_TRACE(preset.name);
    const SyntheticTraceConfig& config = preset.scenario.traffic;
    sim::Random rng(11);
    FlowTrace day = SyntheticCrawdadGenerator(config).generate(rng);
    ASSERT_FALSE(day.empty());
    ASSERT_TRUE(std::is_sorted(day.begin(), day.end(), by_time));
    // Client-major input, the order the generator emits records in.
    FlowTrace client_major = day;
    std::stable_sort(client_major.begin(), client_major.end(),
                     [](const FlowRecord& a, const FlowRecord& b) { return a.client < b.client; });
    expect_bucket_pass_matches(client_major, config.duration);
    // An arbitrary order over the same day's time distribution.
    rng.shuffle(day);
    expect_bucket_pass_matches(day, config.duration);
  }
}

TEST(SyntheticTrace, AlwaysOnClientsChatterAllNight) {
  SyntheticTraceConfig config;
  config.client_count = 30;
  config.always_on_fraction = 1.0;  // force the presence behaviour
  SyntheticCrawdadGenerator generator(config);
  sim::Random rng(5);
  const FlowTrace flows = generator.generate(rng);
  // Every client has traffic in the dead of night.
  std::vector<bool> active(30, false);
  for (const FlowRecord& f : flows) {
    if (f.start_time > util::hours(2.0) && f.start_time < util::hours(4.0)) {
      active[static_cast<std::size_t>(f.client)] = true;
    }
  }
  EXPECT_EQ(std::count(active.begin(), active.end(), true), 30);
}

TEST(SyntheticTrace, PacketExpansionPreservesBytes) {
  FlowTrace flows{{0.0, 0, 4000.0}, {10.0, 1, 200.0}};
  const PacketTrace packets =
      SyntheticCrawdadGenerator::expand_to_packets(flows, util::mbps(6.0));
  double bytes = 0.0;
  for (const PacketRecord& p : packets) bytes += p.bytes;
  EXPECT_DOUBLE_EQ(bytes, 4200.0);
}

TEST(SyntheticTrace, PacketExpansionSpacesByServiceRate) {
  FlowTrace flows{{0.0, 0, 3000.0}};
  const PacketTrace packets =
      SyntheticCrawdadGenerator::expand_to_packets(flows, 12000.0);  // 1500 B/s
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_DOUBLE_EQ(packets[0].time, 0.0);
  EXPECT_DOUBLE_EQ(packets[1].time, 1.0);
}

TEST(SyntheticTrace, ConfigValidation) {
  SyntheticTraceConfig config;
  config.client_count = 0;
  EXPECT_THROW(SyntheticCrawdadGenerator{config}, util::InvalidArgument);
  config = {};
  config.flow_size_min = 10.0;
  config.flow_size_max = 5.0;
  EXPECT_THROW(SyntheticCrawdadGenerator{config}, util::InvalidArgument);
  config = {};
  config.flow_size_alpha = 0.0;
  EXPECT_THROW(SyntheticCrawdadGenerator{config}, util::InvalidArgument);
}

}  // namespace
}  // namespace insomnia::trace

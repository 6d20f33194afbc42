#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "sim/random.h"
#include "trace/flow_ops.h"
#include "trace/synthetic_crawdad.h"
#include "util/error.h"

namespace insomnia::trace {
namespace {

FlowTrace sample_trace() {
  return {{0.0, 0, 100.0}, {10.0, 1, 200.0}, {20.0, 2, 300.0}, {30.0, 0, 400.0}};
}

/// Reference for sort_by_start_time: std::stable_sort by start_time.
FlowTrace stable_sorted(FlowTrace flows) {
  std::stable_sort(flows.begin(), flows.end(), [](const FlowRecord& a, const FlowRecord& b) {
    return a.start_time < b.start_time;
  });
  return flows;
}

void expect_identical(const FlowTrace& actual, const FlowTrace& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].start_time, expected[i].start_time) << "record " << i;
    EXPECT_EQ(actual[i].client, expected[i].client) << "record " << i;
    EXPECT_EQ(actual[i].bytes, expected[i].bytes) << "record " << i;
  }
}

TEST(SortByStartTime, KeepsExactTiesInInputOrder) {
  // Equal times share a bucket; clients tag the input order.
  const FlowTrace flows{{50.0, 0, 1.0}, {10.0, 1, 2.0}, {50.0, 2, 3.0}, {0.0, 3, 4.0},
                        {50.0, 4, 5.0}, {10.0, 5, 6.0}, {99.5, 6, 7.0}, {0.0, 7, 8.0}};
  const FlowTrace sorted = sort_by_start_time(flows, 100.0);
  expect_identical(sorted, stable_sorted(flows));
  EXPECT_EQ(sorted[4].client, 0);
  EXPECT_EQ(sorted[5].client, 2);
  EXPECT_EQ(sorted[6].client, 4);
}

TEST(SortByStartTime, TimeOneUlpBelowDurationLandsLast) {
  const double duration = 86400.0;
  const double last = std::nextafter(duration, 0.0);
  const FlowTrace flows{{last, 0, 1.0}, {0.0, 1, 1.0}, {last, 2, 1.0}, {43200.0, 3, 1.0}};
  const FlowTrace sorted = sort_by_start_time(flows, duration);
  expect_identical(sorted, stable_sorted(flows));
  EXPECT_EQ(sorted.back().start_time, last);
}

TEST(SortByStartTime, EmptyAndSingleRecord) {
  EXPECT_TRUE(sort_by_start_time({}, 10.0).empty());
  const FlowTrace one{{3.0, 7, 42.0}};
  expect_identical(sort_by_start_time(one, 10.0), one);
}

TEST(SortByStartTime, MatchesStableSortOnDenseRandomTimes) {
  // Coarse times: many records per bucket, many ties.
  sim::Random rng(17);
  FlowTrace flows;
  for (int i = 0; i < 5000; ++i) {
    flows.push_back({static_cast<double>(rng.uniform_int(0, 299)) * 0.5, i, 1.0});
  }
  expect_identical(sort_by_start_time(flows, 150.0), stable_sorted(flows));
}

TEST(SortByStartTime, RejectsTimesOutsideTheDay) {
  EXPECT_THROW(sort_by_start_time({{10.0, 0, 1.0}}, 10.0), util::InvalidArgument);
  EXPECT_THROW(sort_by_start_time({{-1.0, 0, 1.0}}, 10.0), util::InvalidArgument);
  EXPECT_THROW(sort_by_start_time({{NAN, 0, 1.0}}, 10.0), util::InvalidArgument);
  EXPECT_THROW(sort_by_start_time({}, 0.0), util::InvalidArgument);
}

TEST(WindowTrace, CutsAndRebases) {
  const FlowTrace window = window_trace(sample_trace(), 10.0, 30.0);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_DOUBLE_EQ(window[0].start_time, 0.0);
  EXPECT_EQ(window[0].client, 1);
  EXPECT_DOUBLE_EQ(window[1].start_time, 10.0);
  EXPECT_EQ(window[1].client, 2);
}

TEST(WindowTrace, HalfOpenBoundaries) {
  // start inclusive, end exclusive.
  const FlowTrace window = window_trace(sample_trace(), 10.0, 20.0);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].client, 1);
}

TEST(WindowTrace, Validation) {
  EXPECT_THROW(window_trace(sample_trace(), 5.0, 5.0), util::InvalidArgument);
}

TEST(FoldClients, MapsAndDrops) {
  // Clients 0 and 2 fold onto terminal 0; client 1 is dropped.
  const FlowTrace folded = fold_clients(sample_trace(), {0, -1, 0});
  ASSERT_EQ(folded.size(), 3u);
  for (const FlowRecord& f : folded) EXPECT_EQ(f.client, 0);
  EXPECT_DOUBLE_EQ(total_bytes(folded), 100.0 + 300.0 + 400.0);
}

TEST(FoldClients, RejectsUnmappedClient) {
  EXPECT_THROW(fold_clients(sample_trace(), {0, 1}), util::InvalidArgument);
}

TEST(ScaleVolume, MultipliesBytesOnly) {
  const FlowTrace scaled = scale_volume(sample_trace(), 3.0);
  ASSERT_EQ(scaled.size(), 4u);
  EXPECT_DOUBLE_EQ(scaled[0].bytes, 300.0);
  EXPECT_DOUBLE_EQ(scaled[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(total_bytes(scaled), 3.0 * total_bytes(sample_trace()));
  EXPECT_THROW(scale_volume(sample_trace(), 0.0), util::InvalidArgument);
}

TEST(TraceStats, TotalsAndDistinctClients) {
  EXPECT_DOUBLE_EQ(total_bytes(sample_trace()), 1000.0);
  EXPECT_EQ(distinct_clients(sample_trace()), 3);
  EXPECT_EQ(distinct_clients({}), 0);
  EXPECT_DOUBLE_EQ(total_bytes({}), 0.0);
}

TEST(TraceOps, ComposeOnGeneratedTrace) {
  SyntheticTraceConfig config;
  config.client_count = 20;
  sim::Random rng(3);
  const FlowTrace day = SyntheticCrawdadGenerator(config).generate(rng);
  // Fold everyone onto 4 terminals, cut the afternoon, scale up by 2.
  std::vector<int> map(20);
  for (int c = 0; c < 20; ++c) map[static_cast<std::size_t>(c)] = c % 4;
  const FlowTrace shaped =
      scale_volume(window_trace(fold_clients(day, map), 12 * 3600.0, 18 * 3600.0), 2.0);
  EXPECT_LE(distinct_clients(shaped), 4);
  for (const FlowRecord& f : shaped) {
    EXPECT_GE(f.start_time, 0.0);
    EXPECT_LT(f.start_time, 6 * 3600.0);
  }
}

}  // namespace
}  // namespace insomnia::trace

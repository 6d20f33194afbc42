// The physical premise behind core::no_sleep_day, stated as a check: access
// devices draw by power state, not load, so a simulated no-sleep day over a
// full synthetic trace has constant power and online series (one segment
// each), and the trace-free no_sleep_day summarizes bit for bit like it —
// over the whole day and over the shorter span an interrupted live run
// covers. A load-dependent power model trips every assertion here.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/day_summary.h"
#include "core/runtime.h"
#include "core/scenario_presets.h"
#include "core/scheme_registry.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

namespace insomnia::core {
namespace {

constexpr std::size_t kBins = 24;
constexpr double kPeakStart = 11.0 * 3600.0;
constexpr double kPeakEnd = 19.0 * 3600.0;

/// A span that ends mid-bin and mid-peak, as a stop signal would leave it.
double interrupted_span(const ScenarioConfig& scenario) {
  return 0.55 * scenario.duration + 123.4;
}

void expect_constant_series(const RunMetrics& metrics, const std::string& what) {
  EXPECT_EQ(metrics.user_power.change_count(), 1u) << what;
  EXPECT_EQ(metrics.isp_power.change_count(), 1u) << what;
  EXPECT_EQ(metrics.online_gateways.change_count(), 1u) << what;
  EXPECT_EQ(metrics.online_cards.change_count(), 1u) << what;
}

void expect_same_summary(const PairedDaySummary& a, const PairedDaySummary& b,
                         const std::string& what) {
  EXPECT_EQ(a.day.baseline_user_energy, b.day.baseline_user_energy) << what;
  EXPECT_EQ(a.day.baseline_isp_energy, b.day.baseline_isp_energy) << what;
  EXPECT_EQ(a.day.user_energy, b.day.user_energy) << what;
  EXPECT_EQ(a.day.isp_energy, b.day.isp_energy) << what;
  EXPECT_EQ(a.day.savings, b.day.savings) << what;
  EXPECT_EQ(a.day.isp_share, b.day.isp_share) << what;
  EXPECT_EQ(a.day.peak_online_gateways, b.day.peak_online_gateways) << what;
  EXPECT_EQ(a.day.peak_online_cards, b.day.peak_online_cards) << what;
  EXPECT_EQ(a.day.wake_events, b.day.wake_events) << what;
  EXPECT_EQ(a.day.bh2_moves, b.day.bh2_moves) << what;
  EXPECT_EQ(a.day.bh2_home_returns, b.day.bh2_home_returns) << what;
  EXPECT_EQ(a.day.executed_events, b.day.executed_events) << what;
  EXPECT_EQ(a.day.flows, b.day.flows) << what;
  EXPECT_EQ(a.baseline_energy_bins, b.baseline_energy_bins) << what;
  EXPECT_EQ(a.scheme_energy_bins, b.scheme_energy_bins) << what;
  EXPECT_EQ(a.online_gateways, b.online_gateways) << what;
}

/// The simulated no-sleep day of an interrupted live run:
/// the arrivals up to `covered` replayed incrementally, drained, and
/// finished at `covered`.
RunMetrics simulated_live_no_sleep(const ScenarioConfig& scenario,
                                   const topo::AccessTopology& topology,
                                   const trace::FlowTrace& flows, double covered,
                                   std::uint64_t seed) {
  const SchemeSpec& spec = find_scheme("no-sleep");
  ScenarioConfig configured = scenario;
  configured.dslam.mode = spec.switch_mode;
  const std::unique_ptr<Policy> policy = spec.make_policy(configured);
  AccessRuntime runtime(configured, topology, *policy, sim::Random(seed),
                        AccessRuntime::LiveMode{true});
  std::size_t count = 0;
  while (count < flows.size() && flows[count].start_time < covered) ++count;
  runtime.append_live_arrivals(flows.data(), count);
  runtime.begin_live();
  runtime.finish_live_input();
  EXPECT_EQ(runtime.step_live(covered + scenario.drain_time),
            AccessRuntime::StepResult::kReachedTime);
  return runtime.finish_live(covered);
}

class NoSleepDay : public ::testing::TestWithParam<std::string> {};

TEST_P(NoSleepDay, MatchesTheSimulatedBaselineBitForBit) {
  const ScenarioConfig& scenario = find_scenario_preset(GetParam()).scenario;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::string what = GetParam() + " seed " + std::to_string(seed);
    // Engine::run's derivations for run 0.
    sim::Random topo_rng(sim::Random::substream_seed(seed, 0, 7));
    const topo::AccessTopology topology =
        topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);
    sim::Random trace_rng(sim::Random::substream_seed(seed, 0, 1));
    const trace::FlowTrace flows =
        trace::SyntheticCrawdadGenerator(scenario.traffic).generate(trace_rng);
    ASSERT_FALSE(flows.empty()) << what;
    const std::uint64_t wiring = sim::Random::substream_seed(seed, 0, 2);

    const RunMetrics simulated = run_scheme(scenario, topology, flows, "no-sleep", wiring);
    ASSERT_GT(simulated.executed_events, 0u) << what;
    expect_constant_series(simulated, what);
    const RunMetrics closed = no_sleep_day(scenario, topology, scenario.duration, wiring);
    EXPECT_EQ(closed.executed_events, 0u) << what;
    EXPECT_EQ(closed.gateway_online_time, simulated.gateway_online_time) << what;

    const RunMetrics scheme = run_scheme(scenario, topology, flows, "bh2-kswitch",
                                         sim::Random::substream_seed(seed, 0, 100));
    const auto summarize = [&](const RunMetrics& baseline) {
      return summarize_paired_day(baseline, scheme, flows.size(), kBins, kPeakStart,
                                  kPeakEnd);
    };
    expect_same_summary(summarize(simulated), summarize(closed), what);

    const double covered = interrupted_span(scenario);
    const std::string cut = what + " covered " + std::to_string(covered);
    const RunMetrics simulated_cut =
        simulated_live_no_sleep(scenario, topology, flows, covered, wiring);
    ASSERT_GT(simulated_cut.executed_events, 0u) << cut;
    expect_constant_series(simulated_cut, cut);
    const RunMetrics closed_cut = no_sleep_day(scenario, topology, covered, wiring);
    EXPECT_EQ(closed_cut.duration, covered) << cut;
    expect_same_summary(summarize(simulated_cut), summarize(closed_cut), cut);
  }
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const ScenarioPreset& preset : scenario_presets()) names.push_back(preset.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Presets, NoSleepDay, ::testing::ValuesIn(preset_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace insomnia::core

#include "probe.h"

#include <cmath>
#include <memory>
#include <utility>

#include "core/day_summary.h"
#include "core/metrics.h"
#include "core/runtime.h"
#include "core/scenario_presets.h"
#include "flow/fluid_network.h"
#include "obs/metrics.h"
#include "power/device_power.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"

namespace perfbench {

namespace core = insomnia::core;
namespace obs = insomnia::obs;
namespace sim = insomnia::sim;
namespace trace = insomnia::trace;

namespace {

class TimedPolicy : public core::Policy {
 public:
  explicit TimedPolicy(std::unique_ptr<core::Policy> inner) : inner_(std::move(inner)) {}

  void start(core::AccessRuntime& runtime) override { inner_->start(runtime); }

  int route_flow(core::AccessRuntime& runtime, int client, double bytes) override {
    RouteLog& log = route_log();
    ++log.calls;
    if (!log.time_calls) {
      const int gateway = inner_->route_flow(runtime, client, bytes);
      if (log.decisions != nullptr) log.decisions->push_back(obs::now_ns());
      return gateway;
    }
    const std::uint64_t start = obs::now_ns();
    const int gateway = inner_->route_flow(runtime, client, bytes);
    const std::uint64_t end = obs::now_ns();
    log.ns += end - start;
    if (log.decisions != nullptr) log.decisions->push_back(end);
    return gateway;
  }

  void on_gateway_active(core::AccessRuntime& runtime, int gateway) override {
    inner_->on_gateway_active(runtime, gateway);
  }

  void on_flow_complete(core::AccessRuntime& runtime,
                        const insomnia::flow::CompletedFlow& flow) override {
    inner_->on_flow_complete(runtime, flow);
  }

  bool sleep_on_idle() const override { return inner_->sleep_on_idle(); }

 private:
  std::unique_ptr<core::Policy> inner_;
};

std::uint64_t counter_value(const char* name) { return obs::counter(name).value(); }

/// Replays the day's event times through a bare simulator: each arrival
/// schedules the next arrival and its own completion, the pattern the
/// runtime's heap sees. Returns ns spent; adds dispatched events to `events`.
double heap_replay(const trace::FlowTrace& flows, const std::vector<double>& fct,
                   double& events) {
  if (flows.empty()) return 0.0;
  sim::Simulator simulator;
  struct Chain {
    sim::Simulator* simulator;
    const trace::FlowTrace* flows;
    const std::vector<double>* fct;
    std::size_t next = 0;
    void arrive() {
      const double completion = (*fct)[next];
      if (std::isfinite(completion)) simulator->after(completion, [] {});
      if (++next < flows->size()) simulator->at((*flows)[next].start_time, [this] { arrive(); });
    }
  } chain{&simulator, &flows, &fct};
  simulator.at(flows.front().start_time, [&chain] { chain.arrive(); });
  const std::uint64_t start = obs::now_ns();
  simulator.run_to_completion();
  const std::uint64_t end = obs::now_ns();
  events += static_cast<double>(simulator.executed_events());
  return static_cast<double>(end - start);
}

/// Replays the day's trace straight into the fluid network, every flow on
/// its client's home gateway and every gateway serving. Returns ns spent.
double flow_replay(const core::ScenarioConfig& scenario,
                   const insomnia::topo::AccessTopology& topology,
                   const trace::FlowTrace& flows) {
  if (flows.empty()) return 0.0;
  sim::Simulator simulator;
  const std::uint64_t start = obs::now_ns();
  auto network = insomnia::flow::make_fluid_network(
      simulator, std::vector<double>(static_cast<std::size_t>(topology.gateway_count),
                                     scenario.backhaul_bps));
  network->set_completion_handler([](const insomnia::flow::CompletedFlow&) {});
  network->reserve_flows(flows.size());
  for (int g = 0; g < topology.gateway_count; ++g) network->set_gateway_serving(g, true);
  struct Chain {
    sim::Simulator* simulator;
    insomnia::flow::FluidNetwork* network;
    const trace::FlowTrace* flows;
    const insomnia::topo::AccessTopology* topology;
    double wireless_bps;
    std::size_t next = 0;
    void arrive() {
      const trace::FlowRecord& record = (*flows)[next];
      network->add_flow(next, record.client,
                        topology->home_gateway[static_cast<std::size_t>(record.client)],
                        record.bytes, wireless_bps);
      if (++next < flows->size()) simulator->at((*flows)[next].start_time, [this] { arrive(); });
    }
  } chain{&simulator, network.get(), &flows, &topology, scenario.home_wireless_bps};
  simulator.at(flows.front().start_time, [&chain] { chain.arrive(); });
  simulator.run_until(scenario.duration + scenario.drain_time);
  network.reset();
  return static_cast<double>(obs::now_ns() - start);
}

}  // namespace

RouteLog& route_log() {
  static RouteLog log;
  return log;
}

const core::SchemeSpec& timed_scheme() {
  core::SchemeRegistry& registry = core::scheme_registry();
  if (!registry.contains(kTimedScheme)) {
    core::SchemeSpec spec = registry.find("bh2-kswitch");
    spec.name = kTimedScheme;
    spec.summary = "bh2-kswitch with route_flow counted and timed (perfbench)";
    auto inner = spec.make_policy;
    spec.make_policy = [inner](const core::ScenarioConfig& scenario) {
      return std::unique_ptr<core::Policy>(
          std::make_unique<TimedPolicy>(inner(scenario)));
    };
    registry.add(std::move(spec));
  }
  return registry.find(kTimedScheme);
}

core::RunSpec day_spec(const std::string& preset, std::uint64_t seed) {
  core::RunSpec spec;
  spec.preset = preset;
  spec.scheme = "bh2-kswitch";
  spec.seed = seed;
  spec.runs = 1;
  spec.threads = 1;
  return spec;
}

double closed_form_baseline_joules(const core::ScenarioConfig& scenario) {
  insomnia::power::AccessPowerParams params = scenario.power;
  params.gateway.active_watts = scenario.household_watts();
  return insomnia::power::no_sleep_watts(params, scenario.gateway_count,
                                         scenario.dslam.line_cards,
                                         scenario.gateway_count) *
         scenario.duration;
}

std::string probe_day(const std::string& preset, std::uint64_t seed, LayerTotals* totals) {
  // Mirrors Engine::run for one run: the same substreams, the same calls,
  // in the same order.
  const core::RunSpec spec = day_spec(preset, seed);
  const core::ScenarioPreset& scenario_preset = core::find_scenario_preset(preset);
  const core::ScenarioConfig& scenario = scenario_preset.scenario;
  // Registration may grow the registry, so resolve the timing twin first.
  const core::SchemeSpec& scheme_spec = timed_scheme();
  const core::SchemeSpec& baseline_spec = core::find_scheme("no-sleep");
  const core::SchemeSpec& plain_spec = core::find_scheme(spec.scheme);

  std::uint64_t stage_start = obs::now_ns();
  sim::Random topo_rng(sim::Random::substream_seed(seed, 0, 7));
  const insomnia::topo::AccessTopology topology =
      insomnia::topo::make_overlap_topology(scenario.client_count, scenario.degrees, topo_rng);
  const double topology_ms = ms_since(stage_start);

  stage_start = obs::now_ns();
  const trace::SyntheticCrawdadGenerator generator(scenario.traffic);
  sim::Random trace_rng(sim::Random::substream_seed(seed, 0, 1));
  const trace::FlowTrace flows = generator.generate(trace_rng);
  const double generate_ms = ms_since(stage_start);

  const std::uint64_t events_before = counter_value("sim.events");
  const std::uint64_t waterfills_before = counter_value("flow.waterfills");

  stage_start = obs::now_ns();
  const core::RunMetrics baseline = core::run_scheme(
      scenario, topology, flows, baseline_spec, sim::Random::substream_seed(seed, 0, 2));
  const double baseline_ms = ms_since(stage_start);

  RouteLog& log = route_log();
  log.time_calls = totals != nullptr;
  log.calls = 0;
  log.ns = 0;
  stage_start = obs::now_ns();
  const core::RunMetrics metrics = core::run_scheme(
      scenario, topology, flows, scheme_spec, sim::Random::substream_seed(seed, 0, 100));
  const double scheme_ms = ms_since(stage_start);
  log.time_calls = false;

  const std::uint64_t sim_events = counter_value("sim.events") - events_before;
  const std::uint64_t waterfills = counter_value("flow.waterfills") - waterfills_before;

  stage_start = obs::now_ns();
  core::RunReport report;
  report.scheme = plain_spec.name;
  report.scheme_display = plain_spec.display;
  report.preset = scenario_preset.name;
  report.seed = seed;
  report.runs = spec.runs;
  report.bins = spec.bins;
  report.peak_start = spec.peak_start;
  report.peak_end = spec.peak_end;
  report.clients = scenario.client_count;
  report.gateways = scenario.gateway_count;
  std::vector<core::PairedDaySummary> days;
  days.push_back(core::summarize_paired_day(baseline, metrics,
                                            static_cast<std::uint64_t>(flows.size()),
                                            spec.bins, spec.peak_start, spec.peak_end));
  core::fold_paired_days(days, report);
  const double summarize_ms = ms_since(stage_start);

  if (totals != nullptr) {
    LayerTotals& t = *totals;
    ++t.days;
    t.generate_ms += generate_ms;
    t.topology_ms += topology_ms;
    t.baseline_ms += baseline_ms;
    t.scheme_ms += scheme_ms;
    t.summarize_ms += summarize_ms;
    t.flows += static_cast<double>(flows.size());
    t.core_events += static_cast<double>(baseline.executed_events + metrics.executed_events);
    t.route_calls += static_cast<double>(log.calls);
    t.route_ms += static_cast<double>(log.ns) / 1e6;
    t.moves += static_cast<double>(metrics.bh2_moves);
    t.wakes += static_cast<double>(metrics.gateway_wake_events);
    t.sim_events += static_cast<double>(sim_events);
    t.waterfills += static_cast<double>(waterfills);
    t.heap_ns += heap_replay(flows, metrics.completion_time, t.heap_events);
    t.replay_ns += flow_replay(scenario, topology, flows);
    t.replay_flows += static_cast<double>(flows.size());
  }
  return report.to_json();
}

bool probe_and_compare(const std::string& preset, std::uint64_t seed, LayerTotals& totals,
                       core::RunReport& engine_report) {
  const auto engine_run = [&preset, seed](const char* scheme, double& wall_ms) {
    core::RunSpec spec = day_spec(preset, seed);
    spec.scheme = scheme;
    const std::uint64_t start = obs::now_ns();
    core::RunReport report = core::Engine().run(spec);
    wall_ms += ms_since(start);
    return report;
  };
  const auto untraced = [&] { engine_report = engine_run("bh2-kswitch", totals.untraced_ms); };
  core::RunReport twin;
  const auto traced = [&] {
    route_log().time_calls = true;
    twin = engine_run(kTimedScheme, totals.traced_ms);
    route_log().time_calls = false;
  };
  std::string probed;
  if (totals.days % 2 == 0) {
    untraced();
    traced();
    probed = probe_day(preset, seed, &totals);
  } else {
    probed = probe_day(preset, seed, &totals);
    traced();
    untraced();
  }
  twin.scheme = engine_report.scheme;
  twin.scheme_display = engine_report.scheme_display;
  return probed == engine_report.to_json() && twin.to_json() == engine_report.to_json();
}

bool baseline_matches(const core::RunReport& report, double joules) {
  for (const core::EngineDay& day : report.days) {
    if (!(std::fabs(day.baseline_user_energy + day.baseline_isp_energy - joules) < 1.0)) {
      return false;
    }
  }
  return !report.days.empty();
}

std::vector<Metric> layer_metrics(const LayerTotals& t) {
  const double n = t.days > 0 ? static_cast<double>(t.days) : 1.0;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double run_ms = t.baseline_ms + t.scheme_ms;
  return {
      {"trace.generate_ms", t.generate_ms / n, "ms"},
      {"trace.flows", t.flows / n, "count"},
      {"topology.build_ms", t.topology_ms / n, "ms"},
      {"core.baseline_ms", t.baseline_ms / n, "ms"},
      {"core.scheme_ms", t.scheme_ms / n, "ms"},
      {"core.summarize_ms", t.summarize_ms / n, "ms"},
      {"core.events", t.core_events / n, "count"},
      {"core.ns_per_event", ratio(run_ms * 1e6, t.core_events), "ns"},
      {"bh2.route_calls", t.route_calls / n, "count"},
      {"bh2.route_ms", t.route_ms / n, "ms"},
      {"bh2.moves", t.moves / n, "count"},
      {"bh2.wakes", t.wakes / n, "count"},
      {"sim.events", t.sim_events / n, "count"},
      {"sim.events_per_s", ratio(t.sim_events, run_ms / 1e3), "1/s"},
      {"sim.heap_ns_per_event", ratio(t.heap_ns, t.heap_events), "ns"},
      {"flow.waterfills", t.waterfills / n, "count"},
      {"flow.waterfills_per_event", ratio(t.waterfills, t.sim_events), "ratio"},
      {"flow.replay_ns_per_flow", ratio(t.replay_ns, t.replay_flows), "ns"},
      {"day.attributed_frac",
       ratio(t.generate_ms + t.baseline_ms + t.scheme_ms + t.summarize_ms, t.traced_ms),
       "frac"},
      {"obs.trace_overhead_frac", ratio(t.traced_ms - t.untraced_ms, t.untraced_ms), "frac"},
  };
}

}  // namespace perfbench

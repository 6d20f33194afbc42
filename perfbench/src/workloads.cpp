#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/engine.h"
#include "core/scenario_presets.h"
#include "country/country_config.h"
#include "country/country_runner.h"
#include "live/event_source.h"
#include "live/live_controller.h"
#include "obs/profiler.h"
#include "obs/rss.h"
#include "sim/random.h"
#include "topology/access_topology.h"
#include "trace/synthetic_crawdad.h"
#include "util/json_writer.h"

namespace perfbench {

namespace core = insomnia::core;
namespace country = insomnia::country;
namespace live = insomnia::live;
namespace obs = insomnia::obs;
namespace sim = insomnia::sim;

namespace {

constexpr const char* kPaperPreset = "paper-default";
/// One paired day per preset of the fleet's rural and developing regions:
/// the fleet-country workload's probe days.
const std::vector<std::string> kFleetPresets = {"developing-world", "sparse-rural",
                                                "paper-default"};

// Substream salts of the benchmark's own inputs (per-unit seeds).
constexpr std::uint64_t kDaySalt = 0x7065;
constexpr std::uint64_t kCountrySalt = 0x7066;
constexpr std::uint64_t kLiveSalt = 0x7067;

/// Paired days compared stage by stage in untraced day-paper runs.
constexpr std::uint64_t kCheckEvery = 10;
/// Quantile of every workload's reported tail (wait_ms_p90), and of the live
/// open-loop tail also reported against its limit.
constexpr double kTailQ = 0.90;
constexpr double kLiveTailQ = 0.99;
/// Consecutive day-paper days per throughput window.
constexpr std::size_t kWindowDays = 10;
/// Virtual-paced live days per open-loop day.
constexpr std::uint64_t kVirtualDaysPerRound = 3;

/// fleet-country: default_country(kCityScale, kNbhdScale) restricted to
/// kFleetRegions, on at most kFleetThreads worker threads.
constexpr double kCityScale = 0.2;
constexpr double kNbhdScale = 0.01;
const std::vector<std::string> kFleetRegions = {"rural", "developing"};
constexpr int kFleetThreads = 2;

/// live open loop: records offered per wall second, the due->decision limit
/// past which a record counts as failed, and the wall tick.
constexpr double kLiveRate = 250000.0;
constexpr double kLiveLimitMs = 250.0;
constexpr double kLiveTickMs = 20.0;

std::uint64_t unit_seed(std::uint64_t seed, std::uint64_t unit, std::uint64_t salt) {
  return sim::Random::substream_seed(seed, unit, salt);
}

double rss_mb() { return static_cast<double>(obs::rss_peak_bytes()) / (1024.0 * 1024.0); }

/// True until `seconds` have passed since `start_ns` or fewer than
/// `min_units` units are done.
bool keep_going(std::uint64_t start_ns, double seconds, std::size_t done,
                std::size_t min_units) {
  return done < min_units || ms_since(start_ns) < seconds * 1e3;
}

/// Samples needed for the reported tail; a smoke run waives the floor.
std::size_t tail_floor(const Params& params, double q) {
  return params.smoke ? 1 : min_samples_for(q);
}

/// Work done per window of a run: paired days, and client-days (each paired
/// day weighted by its neighbourhood's client count, so neighbourhoods of
/// different sizes weigh what they cost). The run's throughput is the median
/// of its per-window rates, which a burst of interference from other
/// processes on the host moves less than a whole-run total does.
class Throughput {
 public:
  void add(double days, double client_days, double ms) {
    windows_.push_back({days, client_days, ms});
  }
  /// The q-th percentile of the per-window client-day rates.
  double rate(double q) const {
    std::vector<double> rates;
    for (const Window& w : windows_) rates.push_back(w.client_days / (w.ms / 1e3));
    return percentile(rates, q);
  }
  double days_per_s() const {
    double days = 0.0;
    double ms = 0.0;
    for (const Window& w : windows_) {
      days += w.days;
      ms += w.ms;
    }
    return days / (ms / 1e3);
  }
  std::size_t windows() const { return windows_.size(); }

 private:
  struct Window {
    double days;
    double client_days;
    double ms;
  };
  std::vector<Window> windows_;
};

/// The end-to-end metrics every untraced run reports.
void end_to_end(Result& result, const Throughput& throughput, double wait_p50,
                double wait_p90, std::size_t samples) {
  result.metrics.push_back({"client_days_per_s", throughput.rate(0.5), "1/s"});
  result.metrics.push_back({"wait_ms_p50", wait_p50, "ms"});
  result.metrics.push_back({"wait_ms_p90", wait_p90, "ms"});
  result.extra.push_back({"days_per_s", throughput.days_per_s(), "1/s"});
  result.extra.push_back(
      {"throughput_windows", static_cast<double>(throughput.windows()), "count"});
  result.extra.push_back({"rss_mb", rss_mb(), "MB"});
  result.extra.push_back({"wait_samples", static_cast<double>(samples), "count"});
  result.extra.push_back({"wait_tail_supported", tail_supported(samples, kTailQ) ? 1.0 : 0.0,
                          "bool"});
}

void end_to_end(Result& result, const Throughput& throughput, std::vector<double> waits) {
  const double p50 = percentile(waits, 0.50);
  const double p90 = percentile(waits, kTailQ);
  end_to_end(result, throughput, p50, p90, waits.size());
}

/// Durations (ms) of every program trace event named `name`, all threads.
std::vector<double> program_span_ms(const obs::TraceSnapshot& snapshot, const char* name) {
  std::vector<double> out;
  for (const obs::TraceEvent& event : snapshot.events) {
    if (event.name != nullptr && std::string(event.name) == name) {
      out.push_back(static_cast<double>(event.dur_ns) / 1e6);
    }
  }
  return out;
}

// --- day-paper -------------------------------------------------------------

Result day_paper_timed(const Params& params) {
  Result result;
  const core::ScenarioConfig& scenario = core::find_scenario_preset(kPaperPreset).scenario;
  const double baseline_joules = closed_form_baseline_joules(scenario);
  const core::Engine engine;
  std::vector<double> waits;
  Throughput throughput;
  double window_ms = 0.0;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t day = 0; keep_going(start, params.seconds, waits.size(),
                                         tail_floor(params, kTailQ));
       ++day) {
    const std::uint64_t seed = unit_seed(params.seed, day, kDaySalt);
    const std::uint64_t day_start = obs::now_ns();
    const core::RunReport report = engine.run(day_spec(kPaperPreset, seed));
    const double ms = ms_since(day_start);
    waits.push_back(ms);
    window_ms += ms;
    if (waits.size() % kWindowDays == 0) {
      throughput.add(kWindowDays, kWindowDays * scenario.client_count, window_ms);
      window_ms = 0.0;
    }
    bool ok = baseline_matches(report, baseline_joules);
    if (day % kCheckEvery == 0) {
      ok = ok && probe_day(kPaperPreset, seed, nullptr) == report.to_json();
    }
    result.check(ok, "day " + std::to_string(day) + " (seed " + std::to_string(seed) +
                         "): baseline or stage-by-stage mismatch");
  }
  if (throughput.windows() == 0) {
    throughput.add(waits.size(), waits.size() * scenario.client_count, window_ms);
  }
  end_to_end(result, throughput, std::move(waits));
  return result;
}

Result day_paper_traced(const Params& params) {
  Result result;
  const core::ScenarioConfig& scenario = core::find_scenario_preset(kPaperPreset).scenario;
  const double baseline_joules = closed_form_baseline_joules(scenario);
  LayerTotals totals;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t day = 0; keep_going(start, params.seconds, day, 2); ++day) {
    const std::uint64_t seed = unit_seed(params.seed, day, kDaySalt);
    core::RunReport report;
    const bool same = probe_and_compare(kPaperPreset, seed, totals, report);
    result.check(same && baseline_matches(report, baseline_joules),
                 "day " + std::to_string(day) + ": baseline or stage-by-stage mismatch");
  }
  result.metrics = layer_metrics(totals);
  return result;
}

// --- fleet-country ---------------------------------------------------------

/// Worker threads of the fleet: kFleetThreads, or fewer on a smaller host.
int fleet_threads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return cores > 0 ? std::min(kFleetThreads, cores) : 1;
}

/// The fleet reads each neighbourhood-day's wall from the program's own
/// city.neighbourhood spans, which only exist while the obs layer is on.
void require_program_spans() {
  if (!obs::enabled()) {
    throw std::runtime_error(
        "fleet-country needs the obs layer (built with INSOMNIA_OBS=ON and the INSOMNIA_OBS "
        "environment variable not off): its waits come from the program's "
        "city.neighbourhood spans");
  }
}

country::CountryConfig fleet_config(const Params& params, std::uint64_t unit) {
  country::CountryConfig config = country::default_country(kCityScale, kNbhdScale);
  std::vector<country::RegionConfig> regions;
  for (const country::RegionConfig& region : config.regions) {
    if (std::find(kFleetRegions.begin(), kFleetRegions.end(), region.name) !=
        kFleetRegions.end()) {
      regions.push_back(region);
    }
  }
  if (regions.size() != kFleetRegions.size()) {
    throw std::logic_error("default_country lacks a region of kFleetRegions");
  }
  config.regions = std::move(regions);
  config.seed = unit_seed(params.seed, unit, kCountrySalt);
  config.threads = fleet_threads();
  return config;
}

std::string fresh_dir(const Params& params, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(params.work_dir) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// The country aggregates, serialized for bit-exact comparison (the country
/// report minus every wall-clock value).
std::string country_digest(const country::CountryResult& result) {
  insomnia::util::JsonWriter json;
  const country::CountryMetrics& m = result.metrics;
  json.begin_object();
  json.field("complete", result.complete);
  json.field("completed_shards", result.completed_shards);
  json.field("total_shards", result.total_shards);
  json.field("quarantined", result.quarantined.size());
  json.field("cities", m.cities());
  json.field("neighbourhoods", m.neighbourhoods());
  json.field("gateways", m.total_gateways());
  json.field("clients", m.total_clients());
  json.field("baseline_watts", m.baseline_watts());
  json.field("scheme_watts", m.scheme_watts());
  json.field("savings", m.savings_fraction());
  json.field("isp_share", m.isp_share_of_savings());
  json.field("savings_mean", m.neighbourhood_savings().mean());
  json.field("savings_m2", m.neighbourhood_savings().m2());
  json.field("peak_online_gateways", m.peak_online_gateways());
  json.field("wake_events", m.wake_events());
  json.key("regions").begin_array();
  for (const country::RegionMetrics& region : m.per_region()) {
    json.begin_object();
    json.field("name", region.name);
    json.field("cities", region.cities);
    json.field("neighbourhoods", region.neighbourhoods);
    json.field("gateways", region.gateways);
    json.field("baseline_watts", region.baseline_watts);
    json.field("scheme_watts", region.scheme_watts);
    json.field("wake_events", region.wake_events);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

struct CountryDay {
  country::CountryResult result;
  double wall_ms = 0.0;
  obs::TraceSnapshot spans;  ///< the program's own spans of this run
};

/// One country day through run_country, checkpointing to a fresh directory.
/// Its spans are the program's own, recorded while tracing is armed.
CountryDay run_country_day(const Params& params, std::uint64_t unit) {
  const country::CountryConfig config = fleet_config(params, unit);
  country::CountryRunOptions options;
  options.checkpoint_dir = fresh_dir(params, "checkpoint");
  obs::reset_profiler();
  CountryDay day;
  const std::uint64_t start = obs::now_ns();
  day.result = country::run_country(config, options);
  day.wall_ms = ms_since(start);
  day.spans = obs::trace_snapshot();
  return day;
}

/// Counts the day's city shards into `result`: every shard must be folded.
void check_country_day(Result& result, const CountryDay& day, std::uint64_t unit) {
  const country::CountryResult& r = day.result;
  const std::size_t failed = r.quarantined.size() + r.total_shards -
                             std::min(r.total_shards, r.completed_shards);
  const bool clean = r.complete && failed == 0 && r.coverage() == 1.0 &&
                     r.child_failures.empty();
  result.tally.add(r.total_shards,
                   clean ? 0 : std::clamp<std::size_t>(failed, 1, r.total_shards),
                   "country day " + std::to_string(unit) + ": incomplete or degraded");
  result.correct = result.correct && clean;
}

Result fleet_timed(const Params& params) {
  Result result;
  std::vector<double> waits;
  Throughput throughput;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t unit = 0; keep_going(start, params.seconds, waits.size(),
                                          tail_floor(params, kTailQ));
       ++unit) {
    const CountryDay day = run_country_day(params, unit);
    check_country_day(result, day, unit);
    const std::vector<double> neighbourhoods = program_span_ms(day.spans, "city.neighbourhood");
    result.check(neighbourhoods.size() == day.result.metrics.neighbourhoods(),
                 "country day " + std::to_string(unit) + ": neighbourhood spans missing");
    waits.insert(waits.end(), neighbourhoods.begin(), neighbourhoods.end());
    throughput.add(static_cast<double>(day.result.metrics.neighbourhoods()),
                   static_cast<double>(day.result.metrics.total_clients()), day.wall_ms);
  }
  end_to_end(result, throughput, std::move(waits));
  result.extra.push_back({"threads", static_cast<double>(fleet_threads()), "count"});
  return result;
}

Result fleet_traced(const Params& params) {
  Result result;
  LayerTotals totals;
  std::vector<double> shard_ms;
  double shard_total_ms = 0.0;
  double wall_total_ms = 0.0;
  double fold_ms = 0.0;
  double disarmed_ms = 0.0;
  double countries = 0.0;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t unit = 0; keep_going(start, params.seconds, unit, 1); ++unit) {
    // The day path: one paired day per preset of the fleet's regions.
    for (std::size_t p = 0; p < kFleetPresets.size(); ++p) {
      const std::uint64_t seed = unit_seed(params.seed, unit * kFleetPresets.size() + p,
                                           kCountrySalt);
      core::RunReport report;
      result.check(probe_and_compare(kFleetPresets[p], seed, totals, report),
                   kFleetPresets[p] + " probe day: stage-by-stage mismatch");
    }
    // The same country day as the timed run, once with the program's trace
    // buffer armed (as timed runs have it) and once disarmed, in alternating
    // order; the two reports must agree bit for bit.
    const auto run = [&params, unit](bool armed) {
      if (armed) {
        obs::enable_tracing();
      } else {
        obs::disable_tracing();
      }
      return run_country_day(params, unit);
    };
    CountryDay plain;
    CountryDay traced;
    if (unit % 2 == 0) {
      plain = run(false);
      traced = run(true);
    } else {
      traced = run(true);
      plain = run(false);
    }
    check_country_day(result, plain, unit);
    check_country_day(result, traced, unit);
    result.check(country_digest(plain.result) == country_digest(traced.result),
                 "country day " + std::to_string(unit) + ": armed and disarmed reports differ");
    disarmed_ms += plain.wall_ms;

    const std::vector<double> cities = program_span_ms(traced.spans, "country.city");
    shard_ms.insert(shard_ms.end(), cities.begin(), cities.end());
    for (double ms : cities) shard_total_ms += ms;
    for (double ms : program_span_ms(traced.spans, "country.fold")) fold_ms += ms;
    wall_total_ms += traced.wall_ms;
    countries += 1.0;
  }
  result.metrics = layer_metrics(totals);
  const double shards = static_cast<double>(shard_ms.size());
  result.extra.push_back({"exec.shards", shards / countries, "count"});
  result.extra.push_back({"exec.shard_ms_p50", percentile(shard_ms, 0.5), "ms"});
  result.extra.push_back(
      {"exec.shard_ms_max", *std::max_element(shard_ms.begin(), shard_ms.end()), "ms"});
  result.extra.push_back(
      {"exec.busy_frac", shard_total_ms / (fleet_threads() * wall_total_ms), "frac"});
  result.extra.push_back({"country.fold_ms", fold_ms / countries, "ms"});
  result.extra.push_back({"country.trace_buffer_frac", wall_total_ms / disarmed_ms - 1.0, "frac"});
  return result;
}

// --- live ------------------------------------------------------------------

/// Open-loop source: wraps the generator and stamps each record's due wall
/// time (run start + virtual time / speedup), and how late the generator
/// handed records over.
class PacedSource : public live::EventSource {
 public:
  PacedSource(const insomnia::trace::SyntheticTraceConfig& config, std::uint64_t seed,
              double rate, std::vector<std::uint64_t>& due)
      : inner_(config, seed, 1), due_(&due) {
    speedup_ = rate / inner_.mean_records_per_virtual_sec();
  }

  double speedup() const { return speedup_; }
  double late_ms_max() const { return late_ms_max_; }

  std::size_t poll(double horizon, std::size_t max,
                   insomnia::trace::FlowTrace& out) override {
    const std::uint64_t now = obs::now_ns();
    if (anchor_ns_ == 0) anchor_ns_ = now;
    const std::size_t before = out.size();
    const std::size_t got = inner_.poll(horizon, max, out);
    for (std::size_t i = before; i < before + got; ++i) {
      const auto due = anchor_ns_ + static_cast<std::uint64_t>(out[i].start_time / speedup_ * 1e9);
      due_->push_back(due);
      if (now > due) late_ms_max_ = std::max(late_ms_max_, static_cast<double>(now - due) / 1e6);
    }
    return got;
  }
  bool exhausted() const override { return inner_.exhausted(); }
  std::string describe() const override { return "paced " + inner_.describe(); }

 private:
  live::GeneratorSource inner_;
  std::vector<std::uint64_t>* due_;
  double speedup_ = 1.0;
  std::uint64_t anchor_ns_ = 0;
  double late_ms_max_ = 0.0;
};

live::LiveController::Options live_options(std::uint64_t seed) {
  live::LiveController::Options options;
  options.scenario = core::find_scenario_preset(kPaperPreset).scenario;
  options.preset_name = kPaperPreset;
  options.seed = seed;
  return options;
}

/// Phase 1: one virtual-paced day with backpressure. With `check_offline`
/// its report must equal the offline Engine run over the same seed.
live::LiveResult live_virtual_day(Result& result, std::uint64_t seed, bool check_offline) {
  // The source synthesizes its day when constructed, before the clock starts.
  auto source = std::make_unique<live::GeneratorSource>(
      core::find_scenario_preset(kPaperPreset).scenario.traffic, seed, 1);
  live::LiveController controller(live_options(seed), std::move(source));
  live::LiveResult day = controller.run();
  const bool same =
      !check_offline ||
      day.report.to_json() == core::Engine().run(day_spec(kPaperPreset, seed)).to_json();
  result.check(same && day.stats.dropped == 0 && !day.stats.interrupted,
               "live virtual day (seed " + std::to_string(seed) + ") differs from offline");
  return day;
}

struct OpenLoopDay {
  live::LiveStats stats;
  double late_ms_max = 0.0;
};

/// Phase 2: one wall-paced day at the fixed open-loop rate; every record is
/// timed from its due wall time to its routing decision, appended to `waits`.
OpenLoopDay live_open_loop_day(Result& result, std::uint64_t seed, std::vector<double>& waits) {
  std::vector<std::uint64_t> due;
  std::vector<std::uint64_t> decided;
  auto source = std::make_unique<PacedSource>(
      core::find_scenario_preset(kPaperPreset).scenario.traffic, seed, kLiveRate, due);
  PacedSource& paced = *source;
  live::LiveController::Options options = live_options(seed);
  options.scheme = kTimedScheme;
  options.pace = live::PaceMode::kWall;
  options.speedup = paced.speedup();
  options.tick_wall_sec = kLiveTickMs / 1e3;
  live::LiveController controller(std::move(options), std::move(source));
  RouteLog& log = route_log();
  due.reserve(400000);
  decided.reserve(400000);
  log.decisions = &decided;
  const live::LiveResult day = controller.run();
  log.decisions = nullptr;

  std::uint64_t late = 0;
  const std::size_t matched = std::min(due.size(), decided.size());
  for (std::size_t i = 0; i < matched; ++i) {
    const double ms =
        decided[i] > due[i] ? static_cast<double>(decided[i] - due[i]) / 1e6 : 0.0;
    waits.push_back(ms);
    if (ms > kLiveLimitMs) ++late;
  }
  const std::uint64_t undecided = due.size() - matched;
  const bool complete = decided.size() == due.size() && day.stats.decided == due.size() &&
                        !day.stats.interrupted;
  result.correct = result.correct && complete;
  result.tally.add(due.size(),
                   std::min<std::uint64_t>(due.size(), late + undecided + day.stats.dropped),
                   "live open-loop day (seed " + std::to_string(seed) +
                       "): records dropped, undecided or past the latency limit");
  return {day.stats, paced.late_ms_max()};
}

Result live_timed(const Params& params) {
  Result result;
  const double clients = core::find_scenario_preset(kPaperPreset).scenario.client_count;
  Throughput throughput;
  std::vector<double> pooled;
  std::vector<double> round;
  std::vector<double> round_p50;
  std::vector<double> round_p90;
  double virtual_wall_ms = 0.0;
  double ingested = 0.0;
  double late_ms_max = 0.0;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t unit = 0; keep_going(start, params.seconds, unit, 2); ++unit) {
    // Phase-1 days are short and the host's speed varies from one to the
    // next, so each round measures several; the first is checked against
    // the offline run and its trace is replayed open loop.
    const std::uint64_t seed = unit_seed(params.seed, unit * kVirtualDaysPerRound, kLiveSalt);
    for (std::uint64_t k = 0; k < kVirtualDaysPerRound; ++k) {
      const live::LiveResult virtual_day = live_virtual_day(
          result, unit_seed(params.seed, unit * kVirtualDaysPerRound + k, kLiveSalt), k == 0);
      const double wall_ms = virtual_day.stats.wall_seconds * 1e3;
      throughput.add(1.0, clients, wall_ms);
      virtual_wall_ms += wall_ms;
      ingested += static_cast<double>(virtual_day.stats.ingested);
    }
    round.clear();
    late_ms_max = std::max(late_ms_max, live_open_loop_day(result, seed, round).late_ms_max);
    pooled.insert(pooled.end(), round.begin(), round.end());
    round_p50.push_back(percentile(round, 0.5));
    round_p90.push_back(percentile(round, kTailQ));
  }
  // Each open-loop day holds ~300k records, so its p90 is well supported;
  // the run reports the median day.
  end_to_end(result, throughput, percentile(round_p50, 0.5), percentile(round_p90, 0.5),
             pooled.size());
  result.extra.push_back({"live_max_eps", ingested / (virtual_wall_ms / 1e3), "1/s"});
  result.extra.push_back({"live_rate", kLiveRate, "1/s"});
  result.extra.push_back({"decide_ms_p99", percentile(pooled, kLiveTailQ), "ms"});
  result.extra.push_back({"decide_ms_p99_limit", kLiveLimitMs, "ms"});
  result.extra.push_back({"decide_ms_max", percentile(pooled, 1.0), "ms"});
  result.extra.push_back({"live.gen_late_ms_max", late_ms_max, "ms"});
  return result;
}

double phase_ms(const char* name) {
  for (const obs::PhaseTotal& phase : obs::phase_totals()) {
    if (phase.name == name) return static_cast<double>(phase.total_ns) / 1e6;
  }
  return 0.0;
}

Result live_traced(const Params& params) {
  Result result;
  LayerTotals totals;
  double poll_ms = 0.0;
  double drain_ms = 0.0;
  double peak_queue = 0.0;
  double overruns = 0.0;
  double late_ms_max = 0.0;
  double days = 0.0;
  const std::uint64_t start = obs::now_ns();
  for (std::uint64_t unit = 0; keep_going(start, params.seconds, unit, 1); ++unit) {
    const std::uint64_t seed = unit_seed(params.seed, unit, kLiveSalt);
    core::RunReport report;
    result.check(probe_and_compare(kPaperPreset, seed, totals, report),
                 "live probe day: stage-by-stage mismatch");
    obs::reset_profiler();
    const live::LiveResult day = live_virtual_day(result, seed, true);
    peak_queue = std::max(peak_queue, static_cast<double>(day.stats.peak_queue_depth));
    poll_ms += phase_ms("live.poll");
    drain_ms += phase_ms("live.drain");
    std::vector<double> waits;
    const OpenLoopDay open = live_open_loop_day(result, seed, waits);
    overruns += static_cast<double>(open.stats.tick_overruns);
    late_ms_max = std::max(late_ms_max, open.late_ms_max);
    days += 1.0;
  }
  result.metrics = layer_metrics(totals);
  result.extra.push_back({"live.poll_ms", poll_ms / days, "ms"});
  result.extra.push_back({"live.drain_ms", drain_ms / days, "ms"});
  result.extra.push_back({"live.peak_queue", peak_queue, "count"});
  result.extra.push_back({"live.tick_overruns", overruns / days, "count"});
  result.extra.push_back({"live.gen_late_ms_max", late_ms_max, "ms"});
  return result;
}

}  // namespace

Result run_day_paper(const Params& params) {
  return params.trace ? day_paper_traced(params) : day_paper_timed(params);
}

Result run_fleet_country(const Params& params) {
  require_program_spans();
  // Timed runs read their waits from the program's spans, so its trace
  // buffer is armed in timed runs too (fleet_traced measures what that costs).
  obs::enable_tracing();
  return params.trace ? fleet_traced(params) : fleet_timed(params);
}

Result run_live(const Params& params) {
  return params.trace ? live_traced(params) : live_timed(params);
}

void setup_only(const Params& params) {
  if (params.workload == "day-paper") {
    const core::ScenarioConfig& scenario = core::find_scenario_preset(kPaperPreset).scenario;
    core::find_scheme("bh2-kswitch");
    sim::Random rng(sim::Random::substream_seed(unit_seed(params.seed, 0, kDaySalt), 0, 7));
    const auto topology =
        insomnia::topo::make_overlap_topology(scenario.client_count, scenario.degrees, rng);
    if (topology.gateway_count != scenario.gateway_count) throw std::logic_error("topology");
  } else if (params.workload == "fleet-country") {
    require_program_spans();
    const country::CountryConfig config = fleet_config(params, 0);
    country::validate(config);
    for (std::uint32_t r = 0; r < config.regions.size(); ++r) {
      for (int c = 0; c < config.regions[r].cities; ++c) {
        country::sample_city(config, r, static_cast<std::uint32_t>(c));
      }
    }
    std::filesystem::create_directories(fresh_dir(params, "checkpoint"));
  } else if (params.workload == "live") {
    const std::uint64_t seed = unit_seed(params.seed, 0, kLiveSalt);
    auto source = std::make_unique<live::GeneratorSource>(
        core::find_scenario_preset(kPaperPreset).scenario.traffic, seed, 1);
    live::LiveController controller(live_options(seed), std::move(source));
  } else {
    throw std::invalid_argument("unknown workload " + params.workload);
  }
}

}  // namespace perfbench

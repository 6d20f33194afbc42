// The day-path layer split. A probe day recomputes one Engine::run paired
// day stage by stage through the library's public entry points — topology,
// trace synthesis, the no-sleep baseline, the scheme, summarize + fold —
// with a timer around each call, and then replays the same day through a
// bare sim::Simulator and a bare fluid network to price the event heap and
// the flow engine on their own. Every workload's traced run probes days of
// its own scenario(s), so the per-layer metrics have one meaning everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scenario.h"
#include "core/scheme_registry.h"
#include "obs/obs.h"

namespace perfbench {

/// Host ms since `start_ns` (an obs::now_ns() reading).
inline double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(insomnia::obs::now_ns() - start_ns) / 1e6;
}

/// Name under which the route-timing twin of bh2-kswitch is registered.
inline constexpr const char* kTimedScheme = "perfbench-bh2-kswitch";

/// What the timing twin records. It runs on one thread at a time.
struct RouteLog {
  bool time_calls = false;  ///< inclusive per-call timing of route_flow
  /// When set, the wall-clock ns at which each routing decision returned,
  /// in arrival order (the live workload's due->decision latency).
  std::vector<std::uint64_t>* decisions = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// The process-wide log the timing twin writes to.
RouteLog& route_log();

/// bh2-kswitch with its Policy wrapped so route_flow is counted and timed.
/// The wrapper only forwards, so results are bit-identical to bh2-kswitch.
/// Registered in the global registry on first call (call it before any
/// worker thread starts).
const insomnia::core::SchemeSpec& timed_scheme();

/// The Engine::run spec of one paper-style paired day.
insomnia::core::RunSpec day_spec(const std::string& preset, std::uint64_t seed);

/// Exact no-sleep day energy (J) of a scenario from the power model alone:
/// every gateway (household gateway + router) and used DSLAM port awake all
/// day, all line cards and the shelf on.
double closed_form_baseline_joules(const insomnia::core::ScenarioConfig& scenario);

/// Per-layer sums over probe days.
struct LayerTotals {
  int days = 0;
  double generate_ms = 0.0;
  double topology_ms = 0.0;
  double baseline_ms = 0.0;
  double scheme_ms = 0.0;
  double summarize_ms = 0.0;
  double flows = 0.0;
  double core_events = 0.0;
  double route_calls = 0.0;
  double route_ms = 0.0;
  double moves = 0.0;
  double wakes = 0.0;
  double sim_events = 0.0;
  double waterfills = 0.0;
  double heap_ns = 0.0;
  double heap_events = 0.0;
  double replay_ns = 0.0;
  double replay_flows = 0.0;
  /// Wall of the same days through Engine::run: untraced, and traced (with
  /// the route-timing twin timing every call, as the probe does).
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
};

/// Recomputes the paired day Engine::run(day_spec(preset, seed)) would give
/// and returns its RunReport JSON. With `totals` the layer split and the
/// heap/flow replays are added to it.
std::string probe_day(const std::string& preset, std::uint64_t seed, LayerTotals* totals);

/// Runs the day three ways: Engine::run untraced (its report goes to
/// `engine_report`, its wall to totals.untraced_ms), Engine::run traced
/// (through the timing twin, wall to totals.traced_ms) and probe_day, and
/// returns whether all three reports are identical. The order reverses from
/// one call to the next, so no run is always the one that finds caches cold.
bool probe_and_compare(const std::string& preset, std::uint64_t seed, LayerTotals& totals,
                       insomnia::core::RunReport& engine_report);

/// True when every day of `report` drew exactly `joules` (to the joule) in
/// its no-sleep baseline — the paper's premise that draw depends on power
/// state, not load.
bool baseline_matches(const insomnia::core::RunReport& report, double joules);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The per-layer metrics (per probe-day means and ratios).
std::vector<Metric> layer_metrics(const LayerTotals& totals);

}  // namespace perfbench

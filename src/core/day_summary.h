// The per-day summarization and run-order fold behind Engine::run, factored
// out so the online LiveController (src/live/) can assemble the exact same
// RunReport from days it simulated incrementally. Keeping one copy is what
// makes the live replay-equivalence gate a byte-compare: both paths derive
// savings, ISP share, peak windows, and the binned series from identical
// arithmetic in identical order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "core/metrics.h"

namespace insomnia::core {

/// Everything one paired day (no-sleep baseline + scheme day) contributes to
/// a RunReport.
struct PairedDaySummary {
  EngineDay day;
  std::vector<double> baseline_energy_bins;  ///< total (user+ISP) J per bin
  std::vector<double> scheme_energy_bins;
  std::vector<double> online_gateways;  ///< binned means
};

/// Summarizes one paired day. `flows` is the number of trace records
/// replayed; the peak window and bin count come from the run spec.
PairedDaySummary summarize_paired_day(const RunMetrics& baseline,
                                      const RunMetrics& metrics, std::uint64_t flows,
                                      std::size_t bins, double peak_start,
                                      double peak_end);

/// Folds day summaries into `report` strictly in day order — independent of
/// which thread computed each day. Reads report.runs and report.bins (the
/// caller sets the spec-echo fields first) and fills days, the aggregates,
/// and both day series.
void fold_paired_days(const std::vector<PairedDaySummary>& days, RunReport& report);

}  // namespace insomnia::core

// The three benchmark workloads. Each is driven from one process through
// the library's public entry points and measures until `seconds` have
// passed (and its tail percentile has enough samples). Untraced runs give
// the end-to-end metrics; traced runs give the per-layer split.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.h"
#include "stats.h"

namespace perfbench {

struct Params {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Short smoke run: the tail-sample floor is waived (the result says so).
  bool smoke = false;
  std::string work_dir;  ///< checkpoint directories
};

struct Result {
  /// False when an output failed a correctness check.
  bool correct = true;
  Tally tally;
  std::vector<Metric> metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::vector<Metric> extra;    ///< workload-specific numbers, reported alongside

  /// Counts one operation; a failed check also marks the run incorrect.
  void check(bool ok, const std::string& why) {
    tally.check(ok, why);
    correct = correct && ok;
  }
};

Result run_day_paper(const Params& params);
Result run_fleet_country(const Params& params);
Result run_live(const Params& params);

/// Builds what `params.workload` needs before its first unit of work
/// (scenario resolved, topology / country plan built, controller
/// constructed) and returns; the caller times process start to here.
void setup_only(const Params& params);

}  // namespace perfbench

// perfbench: the measuring half of the repository benchmark (perfbench/run.py
// builds it, times set-up, and adds the host block).
//
//   perfbench --workload day-paper|fleet-country|live --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--smoke]
//   perfbench --workload W ... --setup-only   prints "ready" after set-up
//   perfbench --self-test                     checks the statistics helpers
//
// A measuring run prints one JSON object on its last line: correct,
// attempted, failed, metrics (end-to-end when untraced, per-layer when
// traced), extra (workload-specific numbers) and build.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument " + arg);
    const std::string name = arg.substr(2);
    if (name == "self-test" || name == "setup-only" || name == "smoke") {
      flags[name] = "1";
    } else if (i + 1 < argc) {
      flags[name] = argv[++i];
    } else {
      throw std::invalid_argument(arg + " needs a value");
    }
  }
  return flags;
}

double number(const std::map<std::string, std::string>& flags, const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  std::size_t used = 0;
  const double value = std::stod(it->second, &used);
  if (used != it->second.size() || !std::isfinite(value) || value < 0) {
    throw std::invalid_argument("--" + name + " must be a non-negative number");
  }
  return value;
}

perfbench::Params parse_params(const std::map<std::string, std::string>& flags) {
  perfbench::Params params;
  params.workload = flags.count("workload") ? flags.at("workload") : "";
  params.seed = std::stoull(flags.count("seed") ? flags.at("seed") : "");
  params.smoke = flags.count("smoke") > 0;
  params.work_dir = flags.count("work-dir") ? flags.at("work-dir") : "";
  if (params.work_dir.empty()) throw std::invalid_argument("missing --work-dir");
  if (flags.count("setup-only") == 0) {
    params.seconds = number(flags, "seconds");
    params.trace = number(flags, "trace") != 0;
  }
  return params;
}

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failures;
    }
  };
  using namespace perfbench;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90");
  expect(percentile(v, 1.0) == 100.0, "p100 is the maximum");
  std::vector<double> one{7.0};
  expect(percentile(one, 0.99) == 7.0, "one sample reads back exactly");
  expect(tail_supported(100, 0.9) && !tail_supported(99, 0.9), "p90 needs 100 samples");
  expect(min_samples_for(0.9) == 100 && min_samples_for(0.99) == 1000,
         "ten samples beyond p90 / p99");
  expect(samples_beyond(20, 0.5) == 10 && tail_supported(20, 0.5), "p50 of 20 has 10 beyond");

  Tally tally;
  tally.add(90);
  tally.add(10, 3, "three late");
  tally.check(false, "one wrong");
  expect(tally.attempted() == 101 && tally.failed() == 4, "tally counts");
  expect(std::fabs(tally.fail_frac() - 4.0 / 101.0) < 1e-15, "fail_frac = failed / attempted");
  expect(tally.reasons().size() == 2, "failure reasons kept");
  bool threw = false;
  try {
    Tally empty;
    empty.fail_frac();
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "fail_frac of nothing attempted is refused");
  threw = false;
  try {
    tally.add(1, 2);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "more failures than attempts is refused");
  std::cout << (failures == 0 ? "self-test ok" : "self-test failed") << "\n";
  return failures == 0 ? 0 : 1;
}

void write_metrics(insomnia::util::JsonWriter& json, const char* key,
                   const std::vector<Metric>& metrics) {
  json.key(key).begin_object();
  for (const Metric& metric : metrics) {
    json.key(metric.name).begin_object();
    json.field("value", metric.value);
    json.field("unit", metric.unit);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse_flags(argc, argv);
    if (flags.count("self-test")) return self_test();
    const perfbench::Params params = parse_params(flags);
    std::filesystem::create_directories(params.work_dir);
    // Registers the route-timing twin before any worker thread exists.
    perfbench::timed_scheme();
    if (flags.count("setup-only")) {
      perfbench::setup_only(params);
      std::cout << "ready" << std::endl;
      return 0;
    }

    perfbench::Result result;
    if (params.workload == "day-paper") {
      result = perfbench::run_day_paper(params);
    } else if (params.workload == "fleet-country") {
      result = perfbench::run_fleet_country(params);
    } else if (params.workload == "live") {
      result = perfbench::run_live(params);
    } else {
      throw std::invalid_argument("unknown workload '" + params.workload + "'");
    }
    for (const std::string& reason : result.tally.reasons()) {
      std::cerr << "perfbench: failed: " << reason << "\n";
    }

    insomnia::util::JsonWriter json;
    json.begin_object();
    json.field("correct", result.correct);
    json.field("attempted", result.tally.attempted());
    json.field("failed", result.tally.failed());
    write_metrics(json, "metrics", result.metrics);
    result.extra.push_back({"fail_frac", result.tally.fail_frac(), "frac"});
    write_metrics(json, "extra", result.extra);
    json.key("build").begin_object();
    json.field("compiler", std::string("g++ ") + __VERSION__);
    json.field("build_type", PERFBENCH_BUILD_TYPE);
#ifdef INSOMNIA_OBS_DISABLED
    json.field("obs_compiled", false);
#else
    json.field("obs_compiled", true);
#endif
    json.field("obs_runtime", insomnia::obs::enabled());
    json.end_object();
    json.end_object();
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}

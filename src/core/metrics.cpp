#include "core/metrics.h"

#include <cmath>

#include "util/error.h"

namespace insomnia::core {

namespace {
double power_integral(const RunMetrics& m, double t0, double t1) {
  return m.user_power.integral(t0, t1) + m.isp_power.integral(t0, t1);
}
}  // namespace

BinnedEnergy bin_energy(const RunMetrics& metrics, std::size_t bins) {
  BinnedEnergy out;
  out.user.resize(bins);
  out.isp.resize(bins);
  const double width = metrics.duration / static_cast<double>(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double lo = width * static_cast<double>(i);
    const double hi = (i + 1 == bins) ? metrics.duration : lo + width;
    out.user[i] = metrics.user_power.integral(lo, hi);
    out.isp[i] = metrics.isp_power.integral(lo, hi);
  }
  return out;
}

double savings_fraction(const RunMetrics& run, const RunMetrics& baseline, double t0,
                        double t1) {
  const double base = power_integral(baseline, t0, t1);
  util::require(base > 0.0, "baseline energy must be positive");
  return 1.0 - power_integral(run, t0, t1) / base;
}

std::vector<double> binned_savings(const RunMetrics& run, const RunMetrics& baseline,
                                   std::size_t bins) {
  util::require(bins > 0, "binned_savings needs at least one bin");
  util::require(run.duration == baseline.duration, "runs must cover the same day");
  std::vector<double> out(bins);
  const double width = run.duration / static_cast<double>(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    const double lo = width * static_cast<double>(i);
    const double hi = (i + 1 == bins) ? run.duration : lo + width;
    out[i] = savings_fraction(run, baseline, lo, hi);
  }
  return out;
}

std::optional<double> isp_share_of_savings(const RunMetrics& run, const RunMetrics& baseline,
                                           double t0, double t1) {
  const double user_saved =
      baseline.user_power.integral(t0, t1) - run.user_power.integral(t0, t1);
  const double isp_saved = baseline.isp_power.integral(t0, t1) - run.isp_power.integral(t0, t1);
  const double total = user_saved + isp_saved;
  const double base = power_integral(baseline, t0, t1);
  if (base <= 0.0 || total <= base * 1e-6) return std::nullopt;
  return isp_saved / total;
}

std::vector<double> completion_time_increase(const RunMetrics& run,
                                             const RunMetrics& baseline) {
  util::require(run.completion_time.size() == baseline.completion_time.size(),
                "runs must replay the same trace");
  std::vector<double> increase;
  increase.reserve(run.completion_time.size());
  for (std::size_t i = 0; i < run.completion_time.size(); ++i) {
    const double a = run.completion_time[i];
    const double b = baseline.completion_time[i];
    if (std::isnan(a) || std::isnan(b) || b <= 0.0) continue;
    increase.push_back(a / b - 1.0);
  }
  return increase;
}

std::vector<double> online_time_variation(const RunMetrics& run, const RunMetrics& baseline) {
  util::require(run.gateway_online_time.size() == baseline.gateway_online_time.size(),
                "runs must share the gateway population");
  std::vector<double> variation;
  variation.reserve(run.gateway_online_time.size());
  for (std::size_t g = 0; g < run.gateway_online_time.size(); ++g) {
    const double base = baseline.gateway_online_time[g];
    const double now = run.gateway_online_time[g];
    if (base <= 0.0) {
      variation.push_back(now > 0.0 ? 1.0 : 0.0);
    } else {
      variation.push_back(now / base - 1.0);
    }
  }
  return variation;
}

}  // namespace insomnia::core

// Sample statistics and failure accounting shared by every workload.
//
// Percentiles use the nearest-rank definition: the q-th percentile of n
// samples is the ceil(q * n)-th smallest. A tail percentile is only reported
// when at least ten samples lie beyond it (n - ceil(q * n) >= 10), so p90
// needs 100 samples and p99 needs 1000.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Rank (1-based) of the q-th percentile among n samples.
inline std::size_t percentile_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::min(n, std::max<std::size_t>(1, rank));
}

/// Samples strictly beyond the q-th percentile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - percentile_rank(n, q);
}

/// True when the q-th percentile of n samples has at least ten beyond it.
inline bool tail_supported(std::size_t n, double q) { return samples_beyond(n, q) >= 10; }

/// Fewest samples for which tail_supported(n, q) holds.
inline std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (!tail_supported(n, q)) ++n;
  return n;
}

/// Nearest-rank percentile; reorders `values`. Throws on an empty set.
inline double percentile(std::vector<double>& values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  const std::size_t k = percentile_rank(values.size(), q) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

/// Operations attempted and failed, with the first few failure reasons.
class Tally {
 public:
  /// Counts `n` operations, `failed` of which failed for `why`.
  void add(std::uint64_t n, std::uint64_t failed = 0, const std::string& why = "") {
    if (failed > n) throw std::invalid_argument("more failures than attempts");
    attempted_ += n;
    failed_ += failed;
    if (failed > 0 && reasons_.size() < kMaxReasons) reasons_.push_back(why);
  }
  void check(bool ok, const std::string& why) { add(1, ok ? 0 : 1, why); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double fail_frac() const {
    if (attempted_ == 0) throw std::logic_error("fail_frac of no attempts");
    return static_cast<double>(failed_) / static_cast<double>(attempted_);
  }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  static constexpr std::size_t kMaxReasons = 8;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

}  // namespace perfbench

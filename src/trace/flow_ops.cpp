#include "trace/flow_ops.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <set>

#include "util/error.h"

namespace insomnia::trace {

FlowTrace sort_by_start_time(const FlowTrace& flows, double duration) {
  util::require(duration > 0.0, "sort_by_start_time needs a positive duration");
  const std::size_t n = flows.size();
  FlowTrace sorted(n);
  if (n == 0) return sorted;
  // Every bucket mapping below rounds monotonically in t, so a lower bucket
  // only ever holds strictly earlier times; a time just below a bucket's end
  // may round up and is clamped back.
  //
  // Pass 1: scatter into kCoarse equal-width buckets, few enough that every
  // bucket's write position stays in cache.
  constexpr std::size_t kCoarse = 256;
  const double coarse_scale = static_cast<double>(kCoarse) / duration;
  const auto coarse = [coarse_scale](double t) {
    return std::min(static_cast<std::size_t>(t * coarse_scale), kCoarse - 1);
  };
  std::array<std::size_t, kCoarse + 1> start{};
  for (const FlowRecord& flow : flows) {
    util::require(flow.start_time >= 0.0 && flow.start_time < duration,
                  "sort_by_start_time needs start times in [0, duration)");
    ++start[coarse(flow.start_time) + 1];
  }
  for (std::size_t c = 1; c <= kCoarse; ++c) start[c] += start[c - 1];
  // Per-thread scratch, reused across calls (a day has ~10^5 records).
  thread_local FlowTrace staged;
  thread_local std::vector<std::size_t> offset;
  staged.resize(n);
  offset.assign(start.begin(), start.end());
  for (const FlowRecord& flow : flows) staged[offset[coarse(flow.start_time)]++] = flow;
  // Pass 2: inside each coarse bucket, a counting pass over one fine bucket
  // per record writes the final positions.
  for (std::size_t c = 0; c < kCoarse; ++c) {
    const std::size_t lo = start[c];
    const std::size_t m = start[c + 1] - lo;
    if (m == 0) continue;
    const double t_lo = static_cast<double>(c) / coarse_scale;
    const double fine_scale = static_cast<double>(m) * coarse_scale;
    const auto fine = [t_lo, fine_scale, m](double t) {
      return std::min(static_cast<std::size_t>(std::max(0.0, (t - t_lo) * fine_scale)), m - 1);
    };
    offset.assign(m + 1, 0);
    for (std::size_t i = lo; i < lo + m; ++i) ++offset[fine(staged[i].start_time) + 1];
    for (std::size_t b = 1; b < m; ++b) offset[b] += offset[b - 1];
    for (std::size_t i = lo; i < lo + m; ++i) {
      sorted[lo + offset[fine(staged[i].start_time)]++] = staged[i];
    }
  }
  // Insertion sort over the whole array never crosses a bucket boundary, so
  // it costs only the inversions inside fine buckets; the strict comparison
  // keeps equal times in input order, as both scatters do.
  for (std::size_t i = 1; i < n; ++i) {
    const FlowRecord flow = sorted[i];
    std::size_t j = i;
    for (; j > 0 && sorted[j - 1].start_time > flow.start_time; --j) sorted[j] = sorted[j - 1];
    sorted[j] = flow;
  }
  return sorted;
}

FlowTrace window_trace(const FlowTrace& flows, double start, double end) {
  util::require(end > start, "window_trace needs end > start");
  FlowTrace out;
  for (const FlowRecord& flow : flows) {
    if (flow.start_time < start || flow.start_time >= end) continue;
    out.push_back({flow.start_time - start, flow.client, flow.bytes});
  }
  return out;
}

FlowTrace fold_clients(const FlowTrace& flows, const std::vector<int>& client_map) {
  FlowTrace out;
  for (const FlowRecord& flow : flows) {
    util::require(flow.client >= 0 &&
                      static_cast<std::size_t>(flow.client) < client_map.size(),
                  "fold_clients: flow references a client outside the map");
    const int mapped = client_map[static_cast<std::size_t>(flow.client)];
    if (mapped < 0) continue;
    out.push_back({flow.start_time, mapped, flow.bytes});
  }
  return out;
}

FlowTrace scale_volume(const FlowTrace& flows, double factor) {
  util::require(factor > 0.0, "scale_volume needs a positive factor");
  FlowTrace out = flows;
  for (FlowRecord& flow : out) flow.bytes *= factor;
  return out;
}

double total_bytes(const FlowTrace& flows) {
  double total = 0.0;
  for (const FlowRecord& flow : flows) total += flow.bytes;
  return total;
}

int distinct_clients(const FlowTrace& flows) {
  std::set<int> clients;
  for (const FlowRecord& flow : flows) clients.insert(flow.client);
  return static_cast<int>(clients.size());
}

}  // namespace insomnia::trace

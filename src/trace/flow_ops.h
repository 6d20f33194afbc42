// Trace surgery utilities: windowing, re-basing, folding clients together
// and scaling — the operations the replay methodology of §5.3 performs on
// the raw traces, exposed as a public API.
#pragma once

#include <vector>

#include "trace/records.h"

namespace insomnia::trace {

/// Stable sort of `flows` by start_time, every one of which must lie in
/// [0, duration): a bucket pass — a stable scatter into 256 equal-width time
/// buckets, then one into about one fine bucket per record inside each —
/// and a final insertion sort that only meets the few inversions left inside
/// fine buckets. Returns an exact-size trace equal to std::stable_sort by
/// start_time, in O(n) for the near-uniform times of a generated day.
FlowTrace sort_by_start_time(const FlowTrace& flows, double duration);

/// Cuts [start, end) out of `flows` and re-bases timestamps to 0.
FlowTrace window_trace(const FlowTrace& flows, double start, double end);

/// Maps every flow's client through `client_map` (entries < 0 drop the
/// flow). Used to fold whole populations onto replay terminals: "each BH2
/// terminal replays the flows of all clients originally associated with one
/// of the traced APs" (§5.3).
FlowTrace fold_clients(const FlowTrace& flows, const std::vector<int>& client_map);

/// Scales every flow's byte count by `factor` (> 0) — the §5.1 sensitivity
/// methodology scaled offered load "up to 3 times up and down".
FlowTrace scale_volume(const FlowTrace& flows, double factor);

/// Total bytes carried by the trace.
double total_bytes(const FlowTrace& flows);

/// Number of distinct clients appearing in the trace.
int distinct_clients(const FlowTrace& flows);

}  // namespace insomnia::trace

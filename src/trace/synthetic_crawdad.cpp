#include "trace/synthetic_crawdad.h"

#include <algorithm>
#include <cmath>

#include "trace/flow_ops.h"
#include "util/error.h"

namespace insomnia::trace {

namespace {
constexpr double kPacketBytes = 1500.0;
}  // namespace

SyntheticCrawdadGenerator::SyntheticCrawdadGenerator(SyntheticTraceConfig config)
    : config_(std::move(config)),
      // Validates 0 < flow_size_min < flow_size_max and flow_size_alpha > 0.
      flow_size_(config_.flow_size_alpha, config_.flow_size_min, config_.flow_size_max) {
  util::require(config_.client_count > 0, "trace needs at least one client");
  util::require(config_.duration > 0.0, "trace duration must be positive");
}

FlowTrace SyntheticCrawdadGenerator::generate(sim::Random& rng) const {
  // Records come out client by client into a per-thread buffer that keeps
  // its capacity across days; one bucket pass orders them into an
  // exact-size trace.
  thread_local FlowTrace unsorted;
  unsorted.clear();
  for (int client = 0; client < config_.client_count; ++client) {
    const bool always_on = rng.bernoulli(config_.always_on_fraction);
    generate_client(client, always_on, rng, unsorted);
  }
  return sort_by_start_time(unsorted, config_.duration);
}

void SyntheticCrawdadGenerator::generate_client(int client, bool always_on, sim::Random& rng,
                                                FlowTrace& out) const {
  if (always_on) {
    generate_session(client, 0.0, config_.duration,
                     config_.flow_gap_mean * config_.always_on_flow_gap_factor, rng, out);
    return;
  }
  // Non-homogeneous Poisson session starts via thinning against the peak
  // rate; sessions do not overlap (a start during a session is discarded,
  // which slightly thins the process uniformly and is absorbed by the
  // calibration of session_rate_at_peak).
  double t = 0.0;
  double busy_until = 0.0;
  while (true) {
    t += rng.exponential(1.0 / config_.session_rate_at_peak);
    if (t >= config_.duration) break;
    if (t < busy_until) continue;
    if (!rng.bernoulli(config_.profile.at(t))) continue;
    const double length = rng.lognormal(config_.session_length_mu, config_.session_length_sigma);
    const double end = std::min(t + length, config_.duration);
    generate_session(client, t, end, config_.flow_gap_mean, rng, out);
    busy_until = end;
  }
}

void SyntheticCrawdadGenerator::generate_session(int client, double start, double end,
                                                 double flow_gap, sim::Random& rng,
                                                 FlowTrace& out) const {
  // Web-like transfers.
  double t = start + rng.exponential(flow_gap);
  while (t < end) {
    out.push_back({t, client, flow_size_(rng)});
    t += rng.exponential(flow_gap);
  }
  // Keep-alive / presence traffic: small but continuous.
  t = start + rng.exponential(config_.keepalive_gap_mean);
  while (t < end) {
    out.push_back(
        {t, client, rng.uniform(config_.keepalive_bytes_min, config_.keepalive_bytes_max)});
    t += rng.exponential(config_.keepalive_gap_mean);
  }
}

PacketTrace SyntheticCrawdadGenerator::expand_to_packets(const FlowTrace& flows,
                                                         double service_rate) {
  util::require(service_rate > 0.0, "service rate must be positive");
  PacketTrace packets;
  const double packet_spacing = kPacketBytes * 8.0 / service_rate;
  for (const FlowRecord& flow : flows) {
    if (flow.bytes <= kPacketBytes) {
      packets.push_back({flow.start_time, flow.client, flow.bytes});
      continue;
    }
    const auto full_packets = static_cast<std::size_t>(flow.bytes / kPacketBytes);
    const double remainder = flow.bytes - static_cast<double>(full_packets) * kPacketBytes;
    for (std::size_t i = 0; i < full_packets; ++i) {
      packets.push_back(
          {flow.start_time + packet_spacing * static_cast<double>(i), flow.client, kPacketBytes});
    }
    if (remainder > 0.0) {
      packets.push_back(
          {flow.start_time + packet_spacing * static_cast<double>(full_packets), flow.client,
           remainder});
    }
  }
  std::sort(packets.begin(), packets.end(),
            [](const PacketRecord& a, const PacketRecord& b) { return a.time < b.time; });
  return packets;
}

}  // namespace insomnia::trace

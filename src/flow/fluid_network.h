// Flow-level ("fluid") model of the access network's data plane. Flows are
// elastic downloads; each is pinned to one gateway and served at its max-min
// fair share of that gateway's broadband backhaul, capped by the wireless
// rate between its client and the gateway. Gateways that are asleep or
// waking serve nothing — their flows stall and resume later, which is how
// the wake-up penalty enters flow completion times (Fig. 9a).
//
// Gateways are independent bottlenecks (a deliberate simplification: at the
// paper's <10 % utilization the client radio, shared across gateways by the
// FatVAP/THEMIS TDMA layer, is never the binding constraint).
//
// The engine is exact and eager: every mutation re-waterfills its gateway
// at once over the gateway's caps kept in ascending order, and each gateway
// owns one completion event in the simulator heap. The randomized harness in
// tests/test_flow_differential.cpp checks it against flow::max_min_allocate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "stats/timeseries.h"

namespace insomnia::flow {

/// Identifies a flow across its lifetime. Callers supply ids (the scheme
/// runner uses the trace index) so completions can be matched across
/// schemes.
using FlowId = std::uint64_t;

/// A finished flow, reported through the completion callback.
struct CompletedFlow {
  FlowId id = 0;
  int client = 0;
  int gateway = 0;        ///< gateway that served the final byte
  double arrival_time = 0.0;
  double completion_time = 0.0;
  double bytes = 0.0;

  /// Flow completion time (seconds).
  double duration() const { return completion_time - arrival_time; }
};

/// The fluid data plane. All mutating calls advance internal progress to
/// the simulator's current time first, so rates may change arbitrarily often
/// without integration error.
class FluidNetwork {
 public:
  /// `backhaul_rates[g]` is gateway g's broadband speed in bits/s.
  FluidNetwork(sim::Simulator& simulator, std::vector<double> backhaul_rates);
  ~FluidNetwork();  ///< folds the local waterfill tally into obs

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  /// Invoked whenever a flow finishes.
  void set_completion_handler(std::function<void(const CompletedFlow&)> handler);

  /// Capacity hint: the caller expects about `flow_count` add_flow calls
  /// with dense ids. Pre-sizes the id map so the replay loop does not pay
  /// for incremental growth (the flow store recycles slots and holds only
  /// live flows).
  void reserve_flows(std::size_t flow_count);

  /// Starts a flow of `bytes` for `client` via `gateway`, throttled to at
  /// most `wireless_cap` bits/s over the air. Zero-byte flows complete
  /// immediately.
  void add_flow(FlowId id, int client, int gateway, double bytes, double wireless_cap);

  /// Moves a live flow to another gateway with a new wireless cap (used only
  /// by the idealised Optimal scheme; BH2 never migrates existing flows).
  /// No-op if the flow already completed.
  void migrate_flow(FlowId id, int new_gateway, double new_wireless_cap);

  /// Marks gateway g as able (true) or unable (false) to move traffic.
  /// Sleeping and waking gateways are not serving.
  void set_gateway_serving(int gateway, bool serving);

  bool gateway_serving(int gateway) const;

  /// Number of unfinished flows pinned to `gateway`.
  int active_flow_count(int gateway) const;

  /// Number of unfinished flows belonging to `client` at `gateway`.
  int client_flow_count_at(int client, int gateway) const;

  /// Instantaneous aggregate service rate (bits/s) of `client`'s flows at
  /// `gateway` — what a terminal knows as "my own share" of that gateway.
  double client_throughput_at(int client, int gateway) const;

  /// Total number of unfinished flows.
  int total_active_flows() const { return live_flows_; }

  /// Instantaneous aggregate service rate of `gateway`, bits/s.
  double gateway_throughput(int gateway) const;

  /// Bits served by `gateway` during [t0, t1] (exact integral).
  double served_bits(int gateway, double t0, double t1) const;

  /// Utilization of `gateway` over the trailing window [now-window, now]:
  /// served bits / (window * backhaul). This is what BH2 terminals estimate
  /// by counting 802.11 sequence numbers.
  double load(int gateway, double window) const;

  /// Time of last traffic activity at `gateway`: the later of the last flow
  /// arrival routed to it and the last instant it served bits. Drives SoI
  /// idle detection.
  double last_activity(int gateway) const;

  int gateway_count() const { return static_cast<int>(gateways_.size()); }

 private:
  /// A flow with less than a millibit left is complete (physically
  /// meaningless, numerically decisive).
  static constexpr double kEpsilonBits = 1e-3;

  /// Completion events fire at least this far in the future (well above the
  /// double ulp at t ~ 1e5 s), so zero-progress event loops cannot form.
  static constexpr double kMinEventDelay = 1e-6;

  struct FlowState {
    FlowId id = 0;
    int client = 0;
    int gateway = 0;
    double arrival_time = 0.0;
    double bytes = 0.0;
    double remaining_bits = 0.0;
    double wireless_cap = 0.0;
    double rate = 0.0;  ///< current service rate, bits/s
    bool done = false;
  };

  /// One live flow's wireless cap, kept in the gateway's ascending cap
  /// order. `seq` is the flow's per-gateway arrival stamp: it breaks cap
  /// ties FIFO, mirroring the order in which a full sort of the flow list
  /// would see them.
  struct SortedCap {
    double cap = 0.0;
    std::uint64_t seq = 0;
    std::size_t flow = 0;  ///< index into flows_
  };

  struct GatewayState {
    double backhaul = 0.0;
    bool serving = false;
    std::vector<std::size_t> flows;  ///< indices into flows_, arrival order
    std::vector<SortedCap> sorted;   ///< live caps ascending by (cap, seq)
    std::vector<std::size_t> finished;  ///< scratch reused by advance()
    std::uint64_t next_cap_seq = 0;
    sim::EventId completion_event = sim::kInvalidEventId;
    double next_completion = 0.0;  ///< scheduled completion-event time
    double last_progress = 0.0;    ///< time progress was last integrated
    double throughput = 0.0;       ///< current aggregate rate
    stats::StepSeries served;      ///< aggregate service rate over time
    double last_activity = 0.0;

    // Exact memo for load(): a repeat query at the same instant with the
    // same window and an unchanged series is a pure recomputation (BH2
    // probes several candidate gateways, many repeatedly, per decision).
    mutable double load_cache_time = -1.0;
    mutable double load_cache_window = 0.0;
    mutable std::size_t load_cache_changes = 0;
    mutable double load_cache_value = 0.0;

    GatewayState(double rate, double start)
        : backhaul(rate), last_progress(start), served(start, 0.0), last_activity(start) {}
  };

  /// Bounds-checked access for the public entry points; the internal hot
  /// paths (advance, reallocate) index with gateway().
  GatewayState& checked_gateway(int g);
  const GatewayState& checked_gateway(int g) const;
  GatewayState& gateway(int g) { return gateways_[static_cast<std::size_t>(g)]; }

  // --- FlowId -> flows_ index map ----------------------------------------
  // Dense ids (the trace replay uses the trace index) live in a flat
  // vector; an id far beyond the number of flows ever added would blow the
  // vector up (a sparse 10^12 id must not allocate gigabytes), so outliers
  // go to a hash map instead.
  static constexpr std::size_t kNoIndex = SIZE_MAX;
  std::size_t find_index(FlowId id) const;
  void store_index(FlowId id, std::size_t index);
  void erase_index(FlowId id);
  /// True when growing the dense vector to hold `id` stays proportionate to
  /// the number of flows actually seen.
  bool dense_id(FlowId id) const;

  /// Inserts `flow` into gw's cap order; `seq` is its tie-break stamp.
  void insert_sorted(GatewayState& gw, std::size_t flow, double cap, std::uint64_t seq);

  /// Removes `flow` from gw's cap order and returns its tie-break stamp.
  std::uint64_t remove_sorted(GatewayState& gw, std::size_t flow);

  /// Integrates progress at `gateway` up to now and completes finished flows.
  void advance(int gateway);

  /// Recomputes rates at `gateway` and (re)schedules its completion event.
  void reallocate(int gateway);

  sim::Simulator* simulator_;
  std::vector<GatewayState> gateways_;
  std::vector<FlowState> flows_;         // live flows plus recycled slots
  std::vector<std::size_t> free_slots_;  // flows_ slots free for reuse
  std::size_t flows_added_ = 0;          // add_flow calls that stored a flow
  std::vector<std::size_t> id_to_index_;               // dense FlowId -> flows_ index
  std::unordered_map<FlowId, std::size_t> id_overflow_;  // sparse outlier ids
  std::function<void(const CompletedFlow&)> on_complete_;
  int live_flows_ = 0;
  /// Reallocations performed, accumulated locally (reallocate is hot) and
  /// folded into the "flow.waterfills" counter once, at destruction.
  std::uint64_t waterfills_ = 0;
};

/// Builds a fluid network on `simulator`. `backhaul_rates[g]` is gateway
/// g's broadband speed in bits/s.
std::unique_ptr<FluidNetwork> make_fluid_network(sim::Simulator& simulator,
                                                 std::vector<double> backhaul_rates);

}  // namespace insomnia::flow

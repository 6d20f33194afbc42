// The fluid engine's randomized differential harness: seeded scenarios are
// replayed against flow::FluidNetwork while the harness mirrors every live
// flow itself (from its own adds and migrations and the engine's completion
// callbacks). Two checks run on every scenario:
//  * at every probe, the engine's gateway and per-client rates must match an
//    oracle that re-water-fills the probed gateway from scratch with
//    flow::max_min_allocate over the mirrored flows (relative 1e-12: the
//    engine sums in a different order), and the flow counts must match
//    exactly;
//  * the full observation log — completion records in callback order,
//    rates, counts, load()/served_bits() series probes, last-activity times
//    — of the first 100 scenarios is pinned by a 64-bit digest, so the
//    engine's exact output cannot drift unnoticed.
//
// Scenario generation notes:
//  * All times, sizes and caps are drawn from continuous distributions, so
//    engineered floating-point ties (two gateways completing at the exact
//    same double, an arrival landing on a completion instant) have measure
//    zero.
//  * Same-instant arrival batches are generated deliberately — several
//    re-water-fills at one instant must leave the same rates as one.
//  * Completion handlers re-enter the network (adds, migrations, probes of
//    deliberately-stale rates) keyed deterministically off the finished
//    flow id.
//
// Scenario count defaults to 1000; INSOMNIA_DIFF_SCENARIOS overrides it
// (CI and scripts/check.sh run a reduced count).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flow/fluid_network.h"
#include "flow/max_min.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace insomnia::flow {
namespace {

struct Op {
  double time = 0.0;
  int kind = 0;  // 0 = add, 1 = serving, 2 = migrate, 3 = probe
  FlowId id = 0;
  int client = 0;
  int gateway = 0;
  double bytes = 0.0;
  double cap = 0.0;
  bool serving = false;
  double window = 1.0;
};

struct IntegralQuery {
  int gateway = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

struct Scenario {
  int gateway_count = 1;
  std::vector<double> backhaul;
  std::vector<Op> ops;
  std::vector<IntegralQuery> integrals;
  double horizon = 0.0;
};

Scenario generate(std::uint64_t seed) {
  sim::Random rng(seed);
  Scenario s;
  s.gateway_count = rng.uniform_int(1, 6);
  for (int g = 0; g < s.gateway_count; ++g) {
    s.backhaul.push_back(rng.uniform(5e5, 2e7));
  }
  s.horizon = rng.uniform(50.0, 400.0);
  const int op_count = rng.uniform_int(30, 120);
  FlowId next_id = 0;
  for (int i = 0; i < op_count; ++i) {
    const double t = rng.uniform(0.0, s.horizon * 0.8);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.55) {
      // Arrival burst: 1-4 flows at the exact same instant.
      const int batch = rng.uniform_int(1, 4);
      for (int b = 0; b < batch; ++b) {
        Op op;
        op.time = t;
        op.kind = 0;
        op.id = next_id++;
        op.client = rng.uniform_int(0, 12);
        op.gateway = rng.uniform_int(0, s.gateway_count - 1);
        op.bytes = rng.bernoulli(0.05) ? 0.0 : rng.bounded_pareto(1.3, 300.0, 5e6);
        op.cap = rng.uniform(2e5, 3e7);
        s.ops.push_back(op);
      }
    } else if (roll < 0.75) {
      Op op;
      op.time = t;
      op.kind = 1;
      op.gateway = rng.uniform_int(0, s.gateway_count - 1);
      op.serving = rng.bernoulli(0.7);
      s.ops.push_back(op);
    } else if (roll < 0.85) {
      if (next_id == 0) continue;
      // Migration of a flow that may be live, completed (no-op) or stalled.
      Op op;
      op.time = t;
      op.kind = 2;
      op.id = static_cast<FlowId>(rng.uniform_int(0, static_cast<int>(next_id) - 1));
      op.gateway = rng.uniform_int(0, s.gateway_count - 1);
      op.cap = rng.uniform(2e5, 3e7);
      s.ops.push_back(op);
    } else {
      Op op;
      op.time = t;
      op.kind = 3;
      op.client = rng.uniform_int(0, 12);
      op.gateway = rng.uniform_int(0, s.gateway_count - 1);
      op.window = rng.uniform(0.5, 60.0);
      s.ops.push_back(op);
    }
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const Op& a, const Op& b) { return a.time < b.time; });
  for (int q = 0; q < 8; ++q) {
    IntegralQuery query;
    query.gateway = rng.uniform_int(0, s.gateway_count - 1);
    const double a = rng.uniform(0.0, s.horizon);
    const double b = rng.uniform(0.0, s.horizon);
    query.t0 = std::min(a, b);
    query.t1 = std::max(a, b);
    s.integrals.push_back(query);
  }
  return s;
}

/// A live flow as the harness knows it from its own calls.
struct MirroredFlow {
  int client = 0;
  int gateway = 0;
  double cap = 0.0;
};

/// The brute-force oracle: the harness's own copy of the live flow set and
/// the serving flags, re-water-filled from scratch on every probe.
class Oracle {
 public:
  explicit Oracle(const std::vector<double>& backhaul)
      : backhaul_(backhaul), serving_(backhaul.size(), false) {}

  void added(FlowId id, int client, int gateway, double cap) {
    live_[id] = {client, gateway, cap};
  }
  void completed(const CompletedFlow& f) {
    const auto it = live_.find(f.id);
    if (it == live_.end()) return fail("completion of a flow that is not live", f.id);
    if (it->second.gateway != f.gateway) fail("completion reports the wrong gateway", f.id);
    live_.erase(it);
  }
  /// Called after migrate_flow returns: a flow that is still live moved.
  void migrated(FlowId id, int gateway, double cap) {
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    it->second.gateway = gateway;
    it->second.cap = cap;
  }
  void serving(int gateway, bool on) { serving_[static_cast<std::size_t>(gateway)] = on; }

  /// Compares what `net` reports for (client, gateway) with a fresh
  /// water-fill of the mirrored flows.
  void check(const FluidNetwork& net, int client, int gateway) {
    ++checks_;
    std::vector<double> caps;
    std::vector<int> clients;
    for (const auto& [id, f] : live_) {
      if (f.gateway != gateway) continue;
      caps.push_back(f.cap);
      clients.push_back(f.client);
    }
    const std::vector<double> rates =
        serving_[static_cast<std::size_t>(gateway)]
            ? max_min_allocate(backhaul_[static_cast<std::size_t>(gateway)], caps)
            : std::vector<double>(caps.size(), 0.0);
    double total = 0.0;
    double client_total = 0.0;
    int client_flows = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      total += rates[i];
      if (clients[i] == client) {
        client_total += rates[i];
        ++client_flows;
      }
    }
    if (!agrees(net.gateway_throughput(gateway), total)) {
      fail("gateway_throughput differs from the oracle", gateway);
    }
    if (!agrees(net.client_throughput_at(client, gateway), client_total)) {
      fail("client_throughput_at differs from the oracle", gateway);
    }
    if (net.active_flow_count(gateway) != static_cast<int>(caps.size())) {
      fail("active_flow_count differs from the oracle", gateway);
    }
    if (net.client_flow_count_at(client, gateway) != client_flows) {
      fail("client_flow_count_at differs from the oracle", gateway);
    }
    if (net.total_active_flows() != static_cast<int>(live_.size())) {
      fail("total_active_flows differs from the oracle", gateway);
    }
  }

  int checks() const { return checks_; }
  /// First disagreement seen, empty when the engine always agreed.
  const std::string& failure() const { return failure_; }

 private:
  static bool agrees(double actual, double expected) {
    return std::abs(actual - expected) <=
           1e-12 * std::max(std::abs(actual), std::abs(expected));
  }
  void fail(const char* what, std::uint64_t key) {
    if (!failure_.empty()) return;
    std::ostringstream out;
    out << what << " (key " << key << ", probe " << checks_ << ")";
    failure_ = out.str();
  }

  std::vector<double> backhaul_;
  std::vector<bool> serving_;
  std::map<FlowId, MirroredFlow> live_;
  int checks_ = 0;
  std::string failure_;
};

struct Replay {
  /// Every observation in execution order (see the file comment).
  std::vector<double> log;
  int oracle_checks = 0;
  std::string oracle_failure;
};

/// Replays the scenario, checking every probe against the oracle and
/// serializing every observation into a flat log.
Replay run_one(const Scenario& s) {
  Replay replay;
  std::vector<double>& log = replay.log;
  Oracle oracle(s.backhaul);
  sim::Simulator sim;
  const auto net = make_fluid_network(sim, s.backhaul);
  const int gw_count = s.gateway_count;

  const auto add = [&](FlowId id, int client, int gateway, double bytes, double cap) {
    oracle.added(id, client, gateway, cap);  // a zero-byte flow completes inside add_flow
    net->add_flow(id, client, gateway, bytes, cap);
  };
  const auto migrate = [&](FlowId id, int gateway, double cap) {
    net->migrate_flow(id, gateway, cap);
    oracle.migrated(id, gateway, cap);
  };
  const auto set_serving = [&](int gateway, bool on) {
    oracle.serving(gateway, on);
    net->set_gateway_serving(gateway, on);
  };

  net->set_completion_handler([&](const CompletedFlow& f) {
    oracle.completed(f);
    log.push_back(-1.0);  // completion tag
    log.push_back(static_cast<double>(f.id));
    log.push_back(static_cast<double>(f.client));
    log.push_back(static_cast<double>(f.gateway));
    log.push_back(f.arrival_time);
    log.push_back(f.completion_time);
    log.push_back(f.bytes);
    // Deterministic re-entrant mutations keyed by the finished id.
    if (f.id < 1'000'000) {
      const FlowId id = f.id;
      if (id % 7 == 3) {
        add(id + 1'000'000, static_cast<int>(id % 23),
            static_cast<int>(id % static_cast<FlowId>(gw_count)),
            500.0 + static_cast<double>(id % 97) * 13.37, 1e6 + static_cast<double>(id % 31) * 1e5);
      }
      if (id % 11 == 5 && id > 0) {
        migrate(id - 1, static_cast<int>(id % static_cast<FlowId>(gw_count)),
                7.5e5 + static_cast<double>(id % 13) * 2.5e5);
      }
      if (id % 13 == 7) {
        set_serving(static_cast<int>(id % static_cast<FlowId>(gw_count)), id % 2 == 0);
      }
      if (id % 17 == 2) {
        // Mid-callback rates are deliberately stale (the re-waterfill after
        // a completion has not run yet), so the oracle is not consulted
        // here; the digest pins the stale value.
        log.push_back(net->gateway_throughput(static_cast<int>(id % gw_count)));
      }
    }
  });

  for (const Op& op : s.ops) {
    sim.at(op.time, [&, op] {
      switch (op.kind) {
        case 0:
          add(op.id, op.client, op.gateway, op.bytes, op.cap);
          break;
        case 1:
          set_serving(op.gateway, op.serving);
          break;
        case 2:
          migrate(op.id, op.gateway, op.cap);
          break;
        default:
          oracle.check(*net, op.client, op.gateway);
          log.push_back(-2.0);  // probe tag
          log.push_back(net->client_throughput_at(op.client, op.gateway));
          log.push_back(net->gateway_throughput(op.gateway));
          log.push_back(static_cast<double>(net->active_flow_count(op.gateway)));
          log.push_back(static_cast<double>(net->client_flow_count_at(op.client, op.gateway)));
          log.push_back(net->load(op.gateway, op.window));
          log.push_back(net->served_bits(op.gateway, 0.0, sim.now()));
          log.push_back(net->last_activity(op.gateway));
          log.push_back(static_cast<double>(net->total_active_flows()));
          log.push_back(net->gateway_serving(op.gateway) ? 1.0 : 0.0);
          break;
      }
    });
  }
  sim.run_until(s.horizon);

  // Final snapshot: whatever is still live, plus the full served series
  // through randomized sub-interval integrals.
  log.push_back(-3.0);
  log.push_back(static_cast<double>(net->total_active_flows()));
  for (int g = 0; g < gw_count; ++g) {
    oracle.check(*net, 0, g);
    log.push_back(net->served_bits(g, 0.0, s.horizon));
    log.push_back(net->gateway_throughput(g));
    log.push_back(net->load(g, 30.0));
    log.push_back(net->last_activity(g));
    log.push_back(static_cast<double>(net->active_flow_count(g)));
  }
  for (const IntegralQuery& q : s.integrals) {
    log.push_back(net->served_bits(q.gateway, q.t0, q.t1));
  }
  replay.oracle_checks = oracle.checks();
  replay.oracle_failure = oracle.failure();
  return replay;
}

Scenario scenario_at(int index) {
  return generate(1234567ull + static_cast<std::uint64_t>(index));
}

int scenario_count() {
  if (const char* env = std::getenv("INSOMNIA_DIFF_SCENARIOS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1000;
}

/// FNV-1a over the bit patterns of `log`, continuing from `hash`.
std::uint64_t fold_digest(std::uint64_t hash, const std::vector<double>& log) {
  for (const double value : log) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(FlowDifferential, MatchesMaxMinOracleOnRandomScenarios) {
  const int scenarios = scenario_count();
  std::uint64_t completions_seen = 0;
  std::uint64_t checks = 0;
  for (int index = 0; index < scenarios; ++index) {
    const Replay replay = run_one(scenario_at(index));
    ASSERT_TRUE(replay.oracle_failure.empty())
        << "scenario " << index << ": " << replay.oracle_failure;
    completions_seen += static_cast<std::uint64_t>(
        std::count(replay.log.begin(), replay.log.end(), -1.0));
    checks += static_cast<std::uint64_t>(replay.oracle_checks);
  }
  // The generator must actually exercise the engine, not produce empty
  // scenarios.
  EXPECT_GT(completions_seen, static_cast<std::uint64_t>(scenarios));
  EXPECT_GT(checks, static_cast<std::uint64_t>(scenarios));
}

TEST(FlowDifferential, ObservationLogDigestIsPinned) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "the pinned digest assumes libstdc++ distribution algorithms";
#endif
  // Recorded when the engine's output was cross-checked bit for bit against
  // an independent second implementation of this interface.
  constexpr std::uint64_t kPinnedDigest = 0x1267bc2f60b11dd5ull;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (int index = 0; index < 100; ++index) {
    digest = fold_digest(digest, run_one(scenario_at(index)).log);
  }
  EXPECT_EQ(digest, kPinnedDigest) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace insomnia::flow

// Pins the PR's allocation-freedom contract: once warm, the simulation's
// inner loop — flow arrival -> reallocate -> completion (re)schedule -> pop
// — performs no steady-state heap allocation. A counting global operator
// new/delete measures a post-warm-up window; the only allowed residue is
// the geometric tail of monitoring vectors (the served-rate StepSeries and
// the flow log grow by doubling, so a window of thousands of events may
// see a handful of reallocations, never one-per-event).
//
// Keep this suite out of sanitizer builds' label filters (it is labelled
// test_hotpath_alloc, not test_sim/exec/city): interposing operator new is
// not TSan-friendly.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "bh2/algorithm.h"
#include "flow/fluid_network.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace {

std::atomic<long> g_allocations{0};
std::atomic<bool> g_counting{false};

// Every replaced allocation function (plain, array, aligned, nothrow) counts
// through here, so no allocation in the window escapes the tally.
void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Every replaced operator delete frees through this one out-of-line helper.
// If free() were inlined into an operator delete at a new-expression's
// cleanup path, GCC would see operator new's result reach free() and report
// -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

std::size_t alignment(std::align_val_t align) { return static_cast<std::size_t>(align); }

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, alignment(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, alignment(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignment(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignment(align));
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }

namespace insomnia {
namespace {

class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
  long count() const { return g_allocations.load(std::memory_order_relaxed); }
};

TEST(HotPathAllocations, EventQueueScheduleRunCancelRescheduleIsAllocationFree) {
  sim::EventQueue queue;
  int fired = 0;
  // Warm-up: grow the slot pool and heap to the working size. The closures
  // capture at most a pointer and stay in std::function's inline buffer.
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(queue.schedule(1000.0 + i, [&fired] { ++fired; }));
  }
  for (int i = 0; i < 64; i += 2) queue.cancel(ids[static_cast<std::size_t>(i)]);
  while (!queue.empty()) queue.run_next();

  AllocationWindow window;
  double t = 2000.0;
  for (int round = 0; round < 2000; ++round) {
    const sim::EventId a = queue.schedule(t + 1.0, [&fired] { ++fired; });
    const sim::EventId b = queue.schedule(t + 2.0, [&fired] { ++fired; });
    queue.reschedule(a, t + 3.0);  // move past b, closure reused
    queue.cancel(b);
    queue.run_next();
    t += 3.0;
  }
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "steady-state EventQueue traffic must not allocate";
  EXPECT_GT(fired, 0);
}

/// Periodic timers on three delays (the shape of BH2 epochs, idle and wake
/// timers), re-armed through Simulator::after; every fourth firing also
/// cancels and re-arms another timer, leaving a tombstone in its lane. The
/// closures capture {this, index} and stay in std::function's inline buffer.
struct PeriodicTimers {
  sim::Simulator sim;
  std::vector<sim::EventId> pending = std::vector<sim::EventId>(30, sim::kInvalidEventId);
  long fired = 0;

  void arm(std::size_t i) {
    static constexpr double kDelays[] = {150.0, 60.0, 5.0};
    pending[i] = sim.after(kDelays[i % 3], [this, i] {
      ++fired;
      arm(i);
      if (fired % 4 == 0) {
        const std::size_t other = (i + 7) % pending.size();
        sim.cancel(pending[other]);
        arm(other);
      }
    });
  }
};

TEST(HotPathAllocations, FixedDelayLaneTrafficIsAllocationFree) {
  PeriodicTimers timers;
  for (std::size_t i = 0; i < timers.pending.size(); ++i) timers.arm(i);
  timers.sim.run_until(20000.0);  // warm-up: lanes and slot pool reach working size

  AllocationWindow window;
  const long before = timers.fired;
  timers.sim.run_until(60000.0);
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "steady after() lane traffic must not allocate";
  EXPECT_GT(timers.fired - before, 10000);
}

TEST(HotPathAllocations, WarmBh2DecisionEpochIsAllocationFree) {
  // A terminal with five gateways in range, decided over by both §3.1
  // cases (home and remote, the overload escape included) and the wake
  // reroute, through one reused Scratch.
  class Observer : public bh2::GatewayObserver {
   public:
    double load(int gateway) const override { return loads[static_cast<std::size_t>(gateway)]; }
    bool is_awake(int gateway) const override { return gateway != 4; }
    std::vector<double> loads{0.0, 0.2, 0.05, 0.6, 0.0};
  };
  const Observer observer;
  const std::vector<int> reachable{0, 1, 2, 3, 4};
  const bh2::Bh2Config config;
  sim::Random rng(9);
  bh2::Scratch scratch;
  int moves = 0;
  const auto epoch = [&] {
    for (int current : reachable) {
      const bh2::Decision d =
          bh2::decide(0, reachable, current, observer, config, rng, 0.0, &scratch);
      if (d.action == bh2::Action::kMoveTo) ++moves;
    }
    moves += bh2::reroute_on_wake_needed(0, reachable, 4, observer, config, rng, &scratch);
  };
  epoch();  // warm-up sizes the scratch buffers

  AllocationWindow window;
  for (int i = 0; i < 1000; ++i) epoch();
  const long allocations = window.count();
  EXPECT_EQ(allocations, 0) << "a warm BH2 decision must not allocate";
  EXPECT_GT(moves, 0);
}

TEST(FluidNetworkAlloc, SteadyStateStaysAllocationFree) {
  sim::Simulator sim;
  const auto owned = flow::make_fluid_network(sim, {6e6, 6e6});
  flow::FluidNetwork& net = *owned;
  net.set_gateway_serving(0, true);
  net.set_gateway_serving(1, true);
  constexpr int kWarmup = 4000;
  constexpr int kMeasured = 2000;
  net.reserve_flows(kWarmup + kMeasured);

  int completed = 0;
  net.set_completion_handler([&completed](const flow::CompletedFlow&) { ++completed; });

  // Two interleaved arrival processes keep 3-6 flows live per gateway, so
  // every arrival triggers advance + water-fill + completion reschedule —
  // the full inner loop — at both gateways.
  flow::FlowId next_id = 0;
  double t = 0.0;
  const auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const int gateway = i % 2;
      const double cap = (i % 3 == 0) ? 2e6 : 9e6;  // mix capped/uncapped
      net.add_flow(next_id++, i % 7, gateway, 20000.0, cap);
      // Alternating gateways at 22 arrivals/s each versus a ~37 flows/s
      // drain keeps the backlog bounded — genuine steady state.
      t += 0.0225;
      sim.run_until(t);
    }
  };
  churn(kWarmup);

  AllocationWindow window;
  churn(kMeasured);
  const long allocations = window.count();

  // kMeasured arrivals ran ~2x that many events through the queue and the
  // data plane. The pre-refactor path allocated several times per event
  // (hash-set nodes, caps/rates/order vectors, closure churn) — thousands
  // here. Warm buffers leave only the doubling tail of the served-rate
  // series and the flow log.
  EXPECT_LT(allocations, 24) << "inner loop is no longer allocation-free";
  EXPECT_GT(completed, kWarmup);  // the churn really completed flows
}

}  // namespace
}  // namespace insomnia

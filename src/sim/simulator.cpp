#include "sim/simulator.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "util/error.h"

namespace insomnia::sim {

namespace {

// Collection-point discipline: the event loop itself carries zero
// instrumentation — we add the executed-events delta to the registry once
// per run_until/run_to_completion call. The counter reference is resolved
// once per process.
void record_executed_delta(std::uint64_t delta) {
#ifndef INSOMNIA_OBS_DISABLED
  static obs::Counter& events = obs::counter("sim.events");
  events.add(delta);
#else
  (void)delta;
#endif
}

}  // namespace

EventId Simulator::at(double t, std::function<void()> action) {
  util::require(t >= now_, "Simulator::at cannot schedule in the past");
  return queue_.schedule(t, std::move(action));
}

bool Simulator::reschedule(EventId id, double t) {
  util::require(t >= now_, "Simulator::reschedule cannot schedule in the past");
  return queue_.reschedule(id, t);
}

EventId Simulator::after(double delay, std::function<void()> action) {
  util::require(delay >= 0.0, "Simulator::after needs delay >= 0");
  return queue_.after(now_, delay, std::move(action));
}

void Simulator::run_until(double end_time, EventStream* stream) {
  run_loop(end_time, stream, /*gated=*/false);
}

bool Simulator::run_until_gated(double end_time, EventStream* stream) {
  util::require(stream != nullptr, "Simulator::run_until_gated needs a stream");
  return run_loop(end_time, stream, /*gated=*/true);
}

bool Simulator::run_loop(double end_time, EventStream* stream, bool gated) {
  util::require(end_time >= now_, "Simulator::run_until cannot rewind the clock");
  OBS_SCOPE("sim.run_until");
  const std::uint64_t executed_before = executed_;
  while (true) {
    const EventQueue::Key* head = queue_.peek();
    const double ts =
        stream != nullptr ? stream->next_time() : std::numeric_limits<double>::infinity();
    const bool stream_first =
        std::isfinite(ts) && (head == nullptr || ts < head->time ||
                              (ts == head->time && stream->next_rank() < head->sequence));
    if (!stream_first && head == nullptr) break;
    const double t = stream_first ? ts : head->time;
    if (t > end_time) break;
    // The gate sits at the point of no return: everything that would run
    // before the head has run, the head was about to fire. Pausing here
    // leaves the clock at the last dispatched instant, so a resumed loop
    // continues exactly where an ungated one would have been.
    if (gated && stream_first && !stream->ready()) {
      record_executed_delta(executed_ - executed_before);
      return false;
    }
    // Advance the clock before dispatching so the callback observes now()
    // equal to its own firing time.
    now_ = t;
    if (stream_first) {
      stream->fire();
    } else {
      queue_.run_next();
    }
    ++executed_;
  }
  now_ = end_time;
  record_executed_delta(executed_ - executed_before);
  return true;
}

void Simulator::run_to_completion() {
  OBS_SCOPE("sim.run_to_completion");
  const std::uint64_t executed_before = executed_;
  while (!queue_.empty()) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++executed_;
  }
  record_executed_delta(executed_ - executed_before);
}

}  // namespace insomnia::sim

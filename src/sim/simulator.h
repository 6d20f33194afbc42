// The discrete-event simulation driver: a clock plus the event queue, with
// absolute and relative scheduling and a bounded run loop.
#pragma once

#include <functional>

#include "sim/event_queue.h"

namespace insomnia::sim {

/// An external, already-ordered source of timed events that run_until can
/// interleave with the queue — e.g. a trace replay whose arrivals are
/// sorted by time and therefore never need to pass through the heap.
///
/// Ordering contract: the head's rank must come from
/// Simulator::allocate_sequence(), taken at the moment the event would
/// otherwise have been schedule()d. Among equal times, the lower rank
/// fires first — the exact FIFO order real schedule() calls would give.
class EventStream {
 public:
  virtual ~EventStream() = default;

  /// Time of the stream's head event; +infinity when exhausted.
  virtual double next_time() const = 0;

  /// FIFO rank of the head event (see class comment).
  virtual std::uint64_t next_rank() const = 0;

  /// Fires the head event and advances the stream.
  virtual void fire() = 0;

  /// Gate consulted by run_until_gated at the instant the head would fire:
  /// false pauses the run loop so the producer can extend the stream first.
  /// Live replay uses this to hold the last buffered arrival back until its
  /// successor is known — the successor's FIFO rank is claimed while the
  /// head is processed, so firing early would claim it at a later point in
  /// the event order than an offline replay would (run_until ignores the
  /// gate). Default: always ready.
  virtual bool ready() const { return true; }
};

/// Discrete-event simulator clock and scheduler.
///
/// Time is in seconds and only moves forward. Callbacks receive no
/// arguments; they capture what they need and may schedule further events.
class Simulator {
 public:
  /// Constructs a simulator whose clock starts at `start_time`.
  explicit Simulator(double start_time = 0.0) : now_(start_time) {}

  /// Current simulation time.
  double now() const { return now_; }

  /// Schedules `action` at absolute time `t` (>= now).
  EventId at(double t, std::function<void()> action);

  /// Schedules `action` `delay` seconds from now (delay >= 0). Fixed-delay
  /// timers should use this rather than at(now() + delay): events sharing a
  /// delay queue in a FIFO lane beside the heap (same firing order).
  EventId after(double delay, std::function<void()> action);

  /// Cancels a pending event; returns true if it was still pending.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Moves a pending event to absolute time `t` (>= now), reusing its
  /// stored closure; returns false if `id` is not pending. Equivalent to
  /// cancel + at with the same callback, minus the allocation.
  bool reschedule(EventId id, double t);

  /// True if `id` is scheduled and has not yet fired or been cancelled.
  bool is_pending(EventId id) const { return queue_.is_pending(id); }

  /// Runs events in order until the queue empties or the next event lies
  /// beyond `end_time`; the clock finishes exactly at `end_time`.
  void run_until(double end_time) { run_until(end_time, nullptr); }

  /// As run_until, additionally interleaving `stream`'s events (may be
  /// nullptr) in exact (time, rank) order with the queued ones.
  void run_until(double end_time, EventStream* stream);

  /// As run_until(end_time, stream), but pauses when the next event to fire
  /// is the stream head and stream->ready() is false: returns false with the
  /// clock still at the last dispatched instant (it does NOT jump to
  /// end_time) so the caller can extend the stream and resume. Returns true
  /// once end_time is reached. A sequence of gated calls that always resumes
  /// executes exactly the events a single run_until would, in the same
  /// order.
  bool run_until_gated(double end_time, EventStream* stream);

  /// Consumes the next FIFO rank for an EventStream head (see EventStream).
  std::uint64_t allocate_sequence() { return queue_.allocate_sequence(); }

  /// Runs all remaining events (use only when the event set is finite).
  void run_to_completion();

  /// Number of events executed so far.
  std::uint64_t executed_events() const { return executed_; }

  /// Number of pending events.
  std::size_t pending_events() const { return queue_.size(); }

 private:
  /// Shared body of run_until / run_until_gated (see the latter's contract).
  bool run_loop(double end_time, EventStream* stream, bool gated);

  EventQueue queue_;
  double now_;
  std::uint64_t executed_ = 0;
};

}  // namespace insomnia::sim

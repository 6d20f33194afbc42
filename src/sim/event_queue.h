// A cancellable discrete-event queue built for allocation-free steady
// state. Scheduled events live in a vector-backed slot pool recycled
// through a free list; they are ordered by a (time, sequence) key kept in
// one of two kinds of structure:
//
//  * an index-tracked 4-ary min-heap of (time, sequence, slot) triples, for
//    arbitrary times — cancel and reschedule move the node in place, so the
//    heap never carries dead entries;
//  * a few FIFO lanes, each keyed by one exact delay, for events scheduled
//    with after(now, delay). Successive appends to a lane carry a growing
//    sequence and, because simulated time never runs backwards and
//    fl(now + d) is monotone in now, a non-decreasing time: the lane stays
//    in key order without a single comparison. Fixed-delay timers (periodic
//    decisions, idle and wake timers) therefore never touch the heap.
//
// The earliest live event is the least key among the heap top and the lane
// fronts. Cancelling a lane event leaves a tombstone that is dropped when it
// reaches the lane front (lane fronts are always live, so next_time() never
// reports a cancelled event). EventIds encode (slot, generation): a stale
// handle — one whose slot has been fired, cancelled and reused — is
// recognised and rejected in O(1).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

namespace insomnia::sim {

/// Identifies a scheduled event; can be used to cancel it before it fires.
/// Encodes a pool slot plus a generation stamp (never 0 for a live event).
using EventId = std::uint64_t;

/// Sentinel meaning "no event".
inline constexpr EventId kInvalidEventId = 0;

/// Timed callbacks with stable FIFO ordering among equal times.
class EventQueue {
 public:
  /// Ordering key of a pending event: events fire in ascending (time,
  /// sequence) order; `sequence` is the FIFO rank among equal times.
  struct Key {
    double time;
    std::uint64_t sequence;
  };

  /// Schedules `action` at absolute time `t`; returns a cancellation handle.
  EventId schedule(double t, std::function<void()>&& action);

  /// Schedules `action` at `now + delay`. Same ordering as
  /// schedule(now + delay, action); events sharing an exact delay queue in
  /// a FIFO lane instead of the heap. An append that would break the lane's
  /// order (a `now` earlier than the lane's last append) or finds no lane
  /// for its delay falls back to the heap.
  EventId after(double now, double delay, std::function<void()>&& action);

  /// Cancels a pending event. Returns true if the event existed and had not
  /// yet fired; cancelling an already-fired or invalid id returns false.
  /// next_time() never reports a cancelled event's time, even when the
  /// minimum is cancelled.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `t`, keeping its stored closure
  /// (no allocation, no handle change). Ordering is as if the event were
  /// cancelled and rescheduled: among equal times it fires after everything
  /// already queued. A lane event moves to the heap. Returns false if `id`
  /// is not pending.
  bool reschedule(EventId id, double t);

  /// True if `id` is scheduled and not yet fired or cancelled.
  bool is_pending(EventId id) const { return lookup(id) != nullptr; }

  /// True if no live events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live (non-cancelled, unfired) events.
  std::size_t size() const { return live_; }

  /// Key of the earliest live event, or nullptr when empty. Valid until the
  /// queue is next modified.
  const Key* peek() const;

  /// Time of the earliest live event; requires !empty().
  double next_time() const;

  /// FIFO rank of the earliest live event; requires !empty(). Comparable
  /// with ranks from allocate_sequence(): among equal times, lower rank
  /// fires first.
  std::uint64_t next_sequence() const;

  /// Consumes and returns the next FIFO rank without scheduling anything.
  /// Lets a caller interleave an external pre-ordered event stream (see
  /// Simulator::EventStream) with exactly the ordering its events would
  /// have had as real schedule() calls made at this moment.
  std::uint64_t allocate_sequence() { return next_sequence_++; }

  /// Pops and runs the earliest live event; requires !empty().
  /// Returns the time at which the event fired.
  double run_next();

 private:
  /// Where a pending event's key lives: the heap, or a lane index.
  static constexpr std::uint8_t kInHeap = 0xff;
  /// front_ value while the earliest event's source is not known.
  static constexpr std::uint8_t kFrontUnknown = 0xfe;
  /// Lanes beside the heap. A day uses at most three distinct fixed delays
  /// (decision period, idle timeout = wake time, a scan period); a fourth
  /// lane leaves room to re-key without evicting a busy one.
  static constexpr std::size_t kLaneCount = 4;

  /// One pool slot. `generation` advances every time the slot is freed so
  /// stale EventIds stop matching once the slot is reused. `sequence` is the
  /// pending event's current rank: a lane node whose rank no longer matches
  /// its slot is a tombstone. `heap_index` is the slot's heap position while
  /// `where` == kInHeap.
  struct Slot {
    std::function<void()> action;
    std::uint64_t sequence = 0;
    std::uint32_t generation = 1;
    std::uint32_t heap_index = 0;
    std::uint32_t next_free = kNoSlot;
    bool live = false;
    std::uint8_t where = kInHeap;
  };

  /// Heap or lane node; 24 bytes, moved freely without touching the
  /// closures.
  struct Node : Key {
    std::uint32_t slot;
  };

  /// FIFO of nodes sharing one delay, in key order. Popped nodes are
  /// reclaimed by shifting the live tail down once they make up half the
  /// buffer, so a lane that never drains still reuses its capacity.
  struct Lane {
    double delay = 0.0;
    std::vector<Node> nodes;
    std::size_t head = 0;

    bool empty() const { return head == nodes.size(); }
    const Node& front() const { return nodes[head]; }
    void pop_front();
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// 4-ary heap: shallower than binary for the same size, and the 4-child
  /// min scan stays within one cache line of nodes.
  static constexpr std::size_t kHeapArity = 4;

  static EventId encode(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }

  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.sequence < b.sequence;
  }

  /// Slot behind a live id, or nullptr for stale/invalid ids.
  const Slot* lookup(EventId id) const;
  Slot* lookup(EventId id);

  /// Claims a pool slot (free list first), marks it live with `action` and
  /// a fresh rank, and returns its index.
  std::uint32_t acquire_slot(std::function<void()>&& action);

  /// Marks a slot dead and recycles it onto the free list.
  void release_slot(std::uint32_t slot);

  /// Lane that takes an append of `t` for `delay`, re-keying an empty lane
  /// if no lane holds `delay`; nullptr sends the event to the heap.
  Lane* lane_for(double delay, double t);

  /// Pops tombstones off `lane`'s front until it is empty or live.
  void trim(Lane& lane);

  /// Where the earliest live event sits: a lane index or kInHeap;
  /// requires !empty(). Remembered in front_ until the next mutation, so
  /// the run loop's peek() and run_next() scan the lanes once per event.
  std::uint8_t front_source() const;

  /// The node front_source() names.
  const Node& front_node(std::uint8_t source) const {
    return source == kInHeap ? heap_.front() : lanes_[source].front();
  }

  /// Writes `node` at heap position `index` and records the position.
  void place(std::size_t index, const Node& node) {
    heap_[index] = node;
    slots_[node.slot].heap_index = static_cast<std::uint32_t>(index);
  }

  /// Moves the node at `index` toward the root / the leaves until the heap
  /// property holds again.
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);

  /// Removes the node at heap position `index` (swap-with-last + sift).
  void heap_remove(std::size_t index);

  std::vector<Slot> slots_;
  std::vector<Node> heap_;
  std::array<Lane, kLaneCount> lanes_;
  mutable std::uint8_t front_ = kFrontUnknown;
  std::size_t live_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace insomnia::sim

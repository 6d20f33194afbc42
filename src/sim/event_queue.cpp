#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace insomnia::sim {

void EventQueue::Lane::pop_front() {
  ++head;
  if (head == nodes.size()) {
    nodes.clear();
    head = 0;
  } else if (2 * head >= nodes.size()) {
    // Popped nodes are at least half the buffer: shifting the live tail
    // down costs no more than the pops already made, and keeps the lane's
    // capacity in use instead of growing it.
    nodes.erase(nodes.begin(), nodes.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

const EventQueue::Slot* EventQueue::lookup(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (slot >= slots_.size()) return nullptr;
  const Slot& entry = slots_[slot];
  if (!entry.live || entry.generation != generation) return nullptr;
  return &entry;
}

EventQueue::Slot* EventQueue::lookup(EventId id) {
  return const_cast<Slot*>(static_cast<const EventQueue*>(this)->lookup(id));
}

std::uint32_t EventQueue::acquire_slot(std::function<void()>&& action) {
  front_ = kFrontUnknown;
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    slots_.emplace_back();
    slot = static_cast<std::uint32_t>(slots_.size() - 1);
  }
  Slot& entry = slots_[slot];
  entry.live = true;
  entry.action = std::move(action);
  entry.sequence = next_sequence_++;
  ++live_;
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& entry = slots_[slot];
  entry.live = false;
  entry.action = nullptr;  // drop captured state promptly
  // Advance the generation so stale ids for this slot stop matching; skip 0
  // on wraparound, keeping encoded ids distinct from kInvalidEventId.
  if (++entry.generation == 0) entry.generation = 1;
  entry.next_free = free_head_;
  free_head_ = slot;
  --live_;
  front_ = kFrontUnknown;
}

void EventQueue::sift_up(std::size_t index) {
  const Node node = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kHeapArity;
    if (!earlier(node, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, node);
}

void EventQueue::sift_down(std::size_t index) {
  const Node node = heap_[index];
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = index * kHeapArity + 1;
    if (first_child >= size) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + kHeapArity, size);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], node)) break;
    place(index, heap_[best]);
    index = best;
  }
  place(index, node);
}

void EventQueue::heap_remove(std::size_t index) {
  const Node moved = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;  // removed the physically last node
  place(index, moved);
  sift_up(index);
  sift_down(slots_[moved.slot].heap_index);
}

EventQueue::Lane* EventQueue::lane_for(double delay, double t) {
  Lane* spare = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.delay == delay) {
      // Appends carry the largest rank so far; the time must not fall
      // behind the lane's last node for the lane to stay in key order.
      return lane.empty() || lane.nodes.back().time <= t ? &lane : nullptr;
    }
    if (spare == nullptr && lane.empty()) spare = &lane;
  }
  if (spare != nullptr) spare->delay = delay;
  return spare;
}

void EventQueue::trim(Lane& lane) {
  while (!lane.empty()) {
    const Node& front = lane.front();
    const Slot& entry = slots_[front.slot];
    if (entry.live && entry.sequence == front.sequence) return;
    lane.pop_front();
  }
}

EventId EventQueue::schedule(double t, std::function<void()>&& action) {
  const std::uint32_t slot = acquire_slot(std::move(action));
  Slot& entry = slots_[slot];
  entry.where = kInHeap;
  heap_.push_back(Node{{t, entry.sequence}, slot});
  sift_up(heap_.size() - 1);
  return encode(slot, entry.generation);
}

EventId EventQueue::after(double now, double delay, std::function<void()>&& action) {
  const double t = now + delay;
  Lane* lane = lane_for(delay, t);
  if (lane == nullptr) return schedule(t, std::move(action));
  const std::uint32_t slot = acquire_slot(std::move(action));
  Slot& entry = slots_[slot];
  entry.where = static_cast<std::uint8_t>(lane - lanes_.data());
  lane->nodes.push_back(Node{{t, entry.sequence}, slot});
  return encode(slot, entry.generation);
}

bool EventQueue::cancel(EventId id) {
  Slot* entry = lookup(id);
  if (entry == nullptr) return false;
  const std::uint8_t where = entry->where;
  const std::size_t index = entry->heap_index;
  release_slot(static_cast<std::uint32_t>(entry - slots_.data()));
  if (where == kInHeap) {
    heap_remove(index);
  } else {
    trim(lanes_[where]);  // the node stays behind as a tombstone
  }
  return true;
}

bool EventQueue::reschedule(EventId id, double t) {
  Slot* entry = lookup(id);
  if (entry == nullptr) return false;
  // A fresh sequence keeps cancel+schedule's FIFO position among equal
  // times; the closure stays put — no allocation, no orphaned entries.
  front_ = kFrontUnknown;
  entry->sequence = next_sequence_++;
  if (entry->where == kInHeap) {
    const std::size_t index = entry->heap_index;
    heap_[index].time = t;
    heap_[index].sequence = entry->sequence;
    sift_up(index);
    sift_down(entry->heap_index);  // position kept current by sift_up
    return true;
  }
  // A lane event moves to the heap; its lane node no longer matches the
  // slot's rank and becomes a tombstone.
  Lane& lane = lanes_[entry->where];
  entry->where = kInHeap;
  heap_.push_back(Node{{t, entry->sequence}, static_cast<std::uint32_t>(entry - slots_.data())});
  sift_up(heap_.size() - 1);
  trim(lane);
  return true;
}

std::uint8_t EventQueue::front_source() const {
  if (front_ != kFrontUnknown) return front_;
  std::uint8_t best = kInHeap;
  const Key* best_key = heap_.empty() ? nullptr : &heap_.front();
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    const Lane& lane = lanes_[i];
    if (lane.empty()) continue;
    if (best_key == nullptr || earlier(lane.front(), *best_key)) {
      best = static_cast<std::uint8_t>(i);
      best_key = &lane.front();
    }
  }
  front_ = best;
  return best;
}

const EventQueue::Key* EventQueue::peek() const {
  return empty() ? nullptr : &front_node(front_source());
}

double EventQueue::next_time() const {
  util::require_state(!empty(), "next_time on empty EventQueue");
  return peek()->time;
}

std::uint64_t EventQueue::next_sequence() const {
  util::require_state(!empty(), "next_sequence on empty EventQueue");
  return peek()->sequence;
}

double EventQueue::run_next() {
  util::require_state(!empty(), "run_next on empty EventQueue");
  const std::uint8_t source = front_source();
  const Node top = front_node(source);
  if (source == kInHeap) {
    heap_remove(0);
  } else {
    lanes_[source].pop_front();
  }
  // Move the action out before releasing so the callback may schedule into
  // (and reuse) this very slot — and because new schedules may relocate the
  // slot pool while the callback runs.
  std::function<void()> action = std::move(slots_[top.slot].action);
  release_slot(top.slot);
  if (source != kInHeap) trim(lanes_[source]);
  action();
  return top.time;
}

}  // namespace insomnia::sim

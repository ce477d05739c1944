#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

namespace rb::sim {

EventHandle EventQueue::schedule(SimTime when, EventFn fn) {
  if (when < last_popped_)
    throw std::invalid_argument{"EventQueue::schedule: time in the past"};
  if (!fn) throw std::invalid_argument{"EventQueue::schedule: empty function"};
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    if (slots_.size() >= kNoSlot)
      throw std::length_error{"EventQueue::schedule: too many events"};
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  push(Entry{when, next_seq_++, slot, s.generation});
  return EventHandle{this, slot, s.generation};
}

bool EventQueue::cancel(std::uint32_t slot, std::uint32_t generation) noexcept {
  if (!live(slot, generation)) return false;
  // Free the slot before the callable's captures are destroyed, so the
  // queue is consistent whatever their destructors do.
  const EventFn dropped = std::move(slots_[slot].fn);
  free_slot(slot);
  if (++dead_ > kCompactFloor && dead_ > heap_.size() / 2) compact();
  return true;
}

void EventQueue::free_slot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i, const Entry e) const noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_top() const noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::drop_dead() const noexcept {
  while (!heap_.empty() &&
         !live(heap_.front().slot, heap_.front().generation)) {
    pop_top();
    --dead_;
  }
}

void EventQueue::compact() noexcept {
  // (time, seq) is a total order, so any valid heap of the live entries
  // pops them in the same sequence.
  std::size_t n = 0;
  for (const Entry& e : heap_) {
    if (live(e.slot, e.generation)) heap_[n++] = e;
  }
  heap_.erase(heap_.begin() + static_cast<std::ptrdiff_t>(n), heap_.end());
  dead_ = 0;
  if (n < 2) return;
  for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) sift_down(i, heap_[i]);
}

bool EventQueue::empty() const noexcept {
  drop_dead();
  return heap_.empty();
}

SimTime EventQueue::next_time() const {
  drop_dead();
  if (heap_.empty()) throw std::logic_error{"EventQueue::next_time: empty"};
  return heap_.front().when;
}

std::pair<SimTime, EventFn> EventQueue::pop() {
  drop_dead();
  if (heap_.empty()) throw std::logic_error{"EventQueue::pop: empty"};
  const Entry top = heap_.front();
  pop_top();
  last_popped_ = top.when;
  std::pair<SimTime, EventFn> out{top.when, std::move(slots_[top.slot].fn)};
  free_slot(top.slot);
  return out;
}

}  // namespace rb::sim

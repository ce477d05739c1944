#pragma once
// Pending-event set for the discrete-event kernel.
//
// Events are ordered by (time, sequence number): events at equal times fire
// in scheduling order, which makes simulations deterministic. The kernel
// makes no heap allocation per event in steady state:
//
//   * Each scheduled callable lives in a slot of an arena the queue owns;
//     fired and cancelled slots go on a free list and are reused.
//   * A slot carries a generation, bumped whenever it is freed. An
//     EventHandle is {queue, slot, generation}: once its event fires or is
//     cancelled the generations differ, so the handle stays inert even after
//     the slot hosts a new event.
//   * The heap is a 4-ary min-heap of plain (time, seq, slot, generation)
//     entries. Cancellation is lazy: a cancelled event frees its slot (and
//     destroys its callable) at once, but its heap entry stays until it
//     reaches the top, where the generation mismatch marks it dead. The
//     queue counts those dead entries; once they exceed both kCompactFloor
//     and half the heap, a cancel removes them all and re-heapifies in
//     place, so the heap stays within twice the live events (plus the
//     floor) and cancel() stays amortized O(1).
//   * EventFn keeps captures of up to 64 bytes inline; only a larger,
//     over-aligned or throwing-move capture costs one heap allocation.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/units.hpp"

namespace rb::sim {

namespace detail {
/// Callables that can be empty: function pointers, and classes with an
/// operator bool (the standard library's function wrapper among them).
template <typename F>
concept Nullable = std::is_pointer_v<F> || requires { &F::operator bool; };
}  // namespace detail

/// A move-only `void()` callable with 64 bytes of inline storage. Lambdas,
/// function pointers and function-wrapper objects convert to it; a capture
/// that does not fit inline (or is over-aligned, or may throw on move) is
/// kept in one heap allocation instead.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, EventFn> && std::is_invocable_r_v<void, D&>)
  EventFn(F&& f) {  // implicit, so a lambda converts at every call site
    if constexpr (detail::Nullable<D>) {
      if (!f) return;  // an empty wrapper stays an empty EventFn
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Requires a non-empty callable.
  void operator()() { ops_->invoke(buf_); }

 private:
  /// Per-type operations. A null `relocate` means the stored bytes can be
  /// copied as they are; a null `destroy` means there is nothing to destroy.
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops make_ops() noexcept {
    if constexpr (!kFitsInline<D>) {
      // The buffer holds a D*: relocating copies the pointer.
      return {[](void* self) { (**static_cast<D**>(self))(); }, nullptr,
              [](void* self) noexcept { delete *static_cast<D**>(self); }};
    } else if constexpr (std::is_trivially_copyable_v<D>) {
      return {[](void* self) { (*static_cast<D*>(self))(); }, nullptr,
              nullptr};
    } else {
      return {[](void* self) { (*static_cast<D*>(self))(); },
              [](void* to, void* from) noexcept {
                D* src = static_cast<D*>(from);
                ::new (to) D(std::move(*src));
                src->~D();
              },
              [](void* self) noexcept { static_cast<D*>(self)->~D(); }};
    }
  }
  template <typename D>
  static constexpr Ops kOps = make_ops<D>();

  void take(EventFn& other) noexcept {
    if (other.ops_ == nullptr) return;
    if (other.ops_->relocate != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue;

/// Handle to a scheduled event, for cancelling it or asking whether it is
/// still pending. Copyable and trivially destructible.
///
/// Lifetime rule: a handle refers to its queue by pointer, so it must not be
/// used (cancel() or pending()) after the queue — the owning Simulator — is
/// destroyed. Components that keep handles cancel them while their
/// simulator is still alive, e.g. in their own destructor, and are
/// destroyed before it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event. Safe to call multiple times and after the event
  /// fired (no-op in both cases). Returns true if this call cancelled it.
  bool cancel() noexcept;

  /// True if the event is still scheduled to fire.
  bool pending() const noexcept;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot,
              std::uint32_t generation) noexcept
      : queue_{queue}, slot_{slot}, generation_{generation} {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  /// Dead (cancelled) heap entries below which the queue never compacts.
  static constexpr std::size_t kCompactFloor = 64;

  EventQueue() = default;
  // Handles point at the queue, so it stays where it was built.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `when`. `when` may not be earlier than
  /// the most recently popped event time.
  EventHandle schedule(SimTime when, EventFn fn);

  bool empty() const noexcept;

  /// Time of the earliest live event. Requires !empty().
  SimTime next_time() const;

  /// Pop and return the earliest live event. Requires !empty().
  /// The returned pair is (time, fn); the caller invokes fn. The event's
  /// slot is already free, so fn may schedule (and reuse it) freely.
  std::pair<SimTime, EventFn> pop();

  /// Number of scheduled events not yet fired, plus cancelled events whose
  /// heap entries are still there: each is counted until it reaches the top
  /// or a compaction removes it.
  std::size_t size() const noexcept { return heap_.size(); }

 private:
  friend class EventHandle;

  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;  ///< bumped each time the slot is freed
    std::uint32_t next_free = 0;   ///< free-list link while the slot is free
  };
  /// Heap entry; dead when `generation` no longer matches its slot's.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  bool live(std::uint32_t slot, std::uint32_t generation) const noexcept {
    return slots_[slot].generation == generation;
  }
  bool cancel(std::uint32_t slot, std::uint32_t generation) noexcept;
  void free_slot(std::uint32_t slot) noexcept;
  void push(const Entry& e);
  /// Place `e` at hole `i` and sift it down.
  void sift_down(std::size_t i, Entry e) const noexcept;
  void pop_top() const noexcept;
  void drop_dead() const noexcept;
  /// Remove every dead entry and rebuild the heap in place.
  void compact() noexcept;

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  mutable std::vector<Entry> heap_;  ///< 4-ary min-heap on (when, seq)
  mutable std::size_t dead_ = 0;     ///< cancelled entries still in heap_
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = 0;
};

inline bool EventHandle::cancel() noexcept {
  return queue_ != nullptr && queue_->cancel(slot_, generation_);
}

inline bool EventHandle::pending() const noexcept {
  return queue_ != nullptr && queue_->live(slot_, generation_);
}

}  // namespace rb::sim

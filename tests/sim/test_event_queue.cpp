#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace rb::sim {
namespace {

TEST(EventQueue, EmptyBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, RejectsEmptyFunction) {
  EventQueue q;
  EXPECT_THROW(q.schedule(0, EventFn{}), std::invalid_argument);
  // An empty function wrapper or pointer converts to an empty EventFn.
  EXPECT_THROW(q.schedule(0, std::function<void()>{}), std::invalid_argument);
  void (*null_fn)() = nullptr;
  EXPECT_THROW(q.schedule(0, null_fn), std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(30, [&] { fired.push_back(3); });
  q.schedule(10, [&] { fired.push_back(1); });
  q.schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifoOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule(100, [] {});
  q.pop().second();
  EXPECT_THROW(q.schedule(50, [] {}), std::invalid_argument);
  q.schedule(100, [] {});  // same time as last pop is fine
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  auto handle = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  auto handle = q.schedule(10, [] {});
  EXPECT_TRUE(handle.cancel());
  EXPECT_FALSE(handle.cancel());
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto handle = q.schedule(10, [] {});
  q.pop().second();
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

TEST(EventQueue, CancelMiddleEventSkipsIt) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(10, [&] { fired.push_back(1); });
  auto mid = q.schedule(20, [&] { fired.push_back(2); });
  q.schedule(30, [&] { fired.push_back(3); });
  mid.cancel();
  // size() is lazy: the cancelled entry is only swept when it reaches the
  // heap top, so it may still be counted here.
  EXPECT_GE(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto a = q.schedule(1, [] {});
  auto b = q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  a.cancel();
  // Lazy: a's heap entry stays until it reaches the top and is swept, so it
  // is still counted. Compaction starts only once the cancelled entries
  // pass EventQueue::kCompactFloor, far above this one.
  EXPECT_EQ(q.size(), 2u);
  q.pop().second();  // sweeps the cancelled a, then pops and runs b
  EXPECT_TRUE(q.empty());
  (void)b;
}

/// Cancelling most of a large queue compacts its heap: size() stays within
/// twice the live events plus the floor after every cancel, the survivors
/// fire in (time, seq) order, and every cancelled handle stays inert.
TEST(EventQueue, BulkCancelKeepsHeapNearLive) {
  constexpr std::size_t kEvents = 10'000;
  Rng rng{2029};
  EventQueue q;
  std::vector<EventHandle> handles;
  std::vector<std::pair<SimTime, std::size_t>> keys;  // (time, seq)
  std::vector<std::size_t> fired;
  for (std::size_t i = 0; i < kEvents; ++i) {
    // Few distinct times, so equal-time ties are common.
    const auto when = static_cast<SimTime>(rng.uniform_index(1'000));
    handles.push_back(q.schedule(when, [&fired, i] { fired.push_back(i); }));
    keys.emplace_back(when, i);
  }
  // A seeded 90%, cancelled in shuffled order so they hit the whole heap.
  std::vector<std::size_t> order(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) order[i] = i;
  for (std::size_t i = kEvents - 1; i > 0; --i) {
    std::swap(order[i], order[rng.uniform_index(i + 1)]);
  }
  std::vector<bool> cancelled(kEvents, false);
  std::size_t live = kEvents;
  for (std::size_t k = 0; k < kEvents * 9 / 10; ++k) {
    ASSERT_TRUE(handles[order[k]].cancel());
    cancelled[order[k]] = true;
    --live;
    ASSERT_LE(q.size(), 2 * live + EventQueue::kCompactFloor)
        << "after " << k + 1 << " cancels";
  }
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (!cancelled[i]) continue;
    EXPECT_FALSE(handles[i].pending()) << i;
    EXPECT_FALSE(handles[i].cancel()) << i;
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::size_t> expected;
  for (const auto& [when, i] : keys) {
    if (!cancelled[i]) expected.push_back(i);
  }
  SimTime prev = 0;
  while (!q.empty()) {
    auto [when, fn] = q.pop();
    ASSERT_GE(when, prev);
    prev = when;
    fn();
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, RandomizedOrderProperty) {
  Rng rng{99};
  EventQueue q;
  std::vector<SimTime> times;
  for (int i = 0; i < 1000; ++i) {
    const auto t = static_cast<SimTime>(rng.uniform_index(10'000));
    times.push_back(t);
    q.schedule(t, [] {});
  }
  SimTime prev = -1;
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

/// Differential test against a reference model of the (time, seq) order:
/// random interleavings of schedule, cancel (of live, fired and cancelled
/// events alike) and pop must fire the same events in the same order, and
/// every handle's pending() must agree with the model throughout.
TEST(EventQueue, MatchesReferenceModelUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed};
    EventQueue q;
    std::map<std::pair<SimTime, std::uint64_t>, int> model;  // live events
    std::vector<EventHandle> handles;
    std::vector<std::pair<SimTime, std::uint64_t>> key_of;
    std::vector<bool> live;
    std::vector<int> fired;
    std::vector<int> expected;
    std::uint64_t seq = 0;
    SimTime now = 0;
    for (int op = 0; op < 20'000; ++op) {
      const auto roll = rng.uniform_index(10);
      if (roll < 5) {
        // Few distinct times, so equal-time ties are common.
        const SimTime when = now + static_cast<SimTime>(rng.uniform_index(8));
        const int id = static_cast<int>(handles.size());
        handles.push_back(q.schedule(when, [&fired, id] { fired.push_back(id); }));
        key_of.emplace_back(when, seq);
        model.emplace(std::make_pair(when, seq++), id);
        live.push_back(true);
      } else if (roll < 7 && !handles.empty()) {
        const auto id = rng.uniform_index(handles.size());
        ASSERT_EQ(handles[id].cancel(), static_cast<bool>(live[id]));
        if (live[id]) model.erase(key_of[id]);
        live[id] = false;
      } else {
        ASSERT_EQ(q.empty(), model.empty());
        if (model.empty()) continue;
        const auto head = model.begin();
        ASSERT_EQ(q.next_time(), head->first.first);
        expected.push_back(head->second);
        live[static_cast<std::size_t>(head->second)] = false;
        now = head->first.first;
        model.erase(head);
        auto [when, fn] = q.pop();
        ASSERT_EQ(when, now);
        fn();
      }
      if (op % 97 == 0) {
        for (std::size_t i = 0; i < handles.size(); ++i) {
          ASSERT_EQ(handles[i].pending(), static_cast<bool>(live[i])) << i;
        }
      }
    }
    while (!q.empty()) q.pop().second();
    for (const auto& [key, id] : model) expected.push_back(id);
    EXPECT_EQ(fired, expected) << "seed " << seed;
  }
}

TEST(EventQueue, StaleHandleCannotTouchTheSlotsNextEvent) {
  EventQueue q;
  int first = 0, second = 0;
  auto old = q.schedule(10, [&] { ++first; });
  q.pop().second();  // fires; its slot is free again
  EXPECT_EQ(first, 1);
  auto fresh = q.schedule(20, [&] { ++second; });  // reuses the slot
  EXPECT_FALSE(old.pending());
  EXPECT_FALSE(old.cancel());
  EXPECT_TRUE(fresh.pending());

  // The same through a cancel: the slot freed by a cancel hosts `next`.
  EXPECT_TRUE(fresh.cancel());
  auto next = q.schedule(30, [&] { ++second; });
  EXPECT_FALSE(fresh.cancel());
  EXPECT_FALSE(old.cancel());
  EXPECT_TRUE(next.pending());
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(next.pending());
}

/// Counts destructions of the original (not moved-from) object, so a
/// capture that is moved through the kernel still counts once.
struct DestroyCounter {
  explicit DestroyCounter(int* count) : count_{count} {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : count_{std::exchange(other.count_, nullptr)} {}
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (count_ != nullptr) ++*count_;
  }
  int* count_;
};

/// A move-only event whose capture fits inline (`Pad` = 0) or, padded past
/// EventFn's 64 inline bytes, takes the heap fallback.
template <std::size_t Pad>
EventFn counted_event(int* destroyed, int* ran) {
  if constexpr (Pad == 0) {
    return [c = DestroyCounter{destroyed}, ran] { ++*ran; };
  } else {
    std::array<char, Pad> pad{};
    pad[0] = 1;
    return [c = DestroyCounter{destroyed}, ran, pad] { *ran += pad[0]; };
  }
}

template <std::size_t Pad>
void check_capture_lifetimes() {
  {  // Run: destroyed once, after the call.
    int destroyed = 0, ran = 0;
    EventQueue q;
    q.schedule(1, counted_event<Pad>(&destroyed, &ran));
    EXPECT_EQ(destroyed, 0);
    auto [when, fn] = q.pop();
    EXPECT_EQ(destroyed, 0);
    fn();
    EXPECT_EQ(ran, 1);
    fn = nullptr;
    EXPECT_EQ(destroyed, 1);
  }
  {  // Cancel: destroyed once, at the cancel; never run.
    int destroyed = 0, ran = 0;
    EventQueue q;
    auto handle = q.schedule(1, counted_event<Pad>(&destroyed, &ran));
    EXPECT_TRUE(handle.cancel());
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(handle.cancel());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(ran, 0);
  }
  {  // Queue destruction: every pending capture destroyed once, none run.
    int destroyed = 0, ran = 0;
    {
      EventQueue q;
      for (int i = 0; i < 100; ++i) {
        q.schedule(i, counted_event<Pad>(&destroyed, &ran));
      }
    }
    EXPECT_EQ(destroyed, 100);
    EXPECT_EQ(ran, 0);
  }
}

TEST(EventFn, InlineMoveOnlyCaptureDestroyedExactlyOnce) {
  static_assert(sizeof(DestroyCounter) + sizeof(int*) <= EventFn::kInlineBytes);
  check_capture_lifetimes<0>();
}

TEST(EventFn, HeapFallbackCaptureDestroyedExactlyOnce) {
  check_capture_lifetimes<2 * EventFn::kInlineBytes>();
}

TEST(EventFn, SlotGrowthKeepsCapturesIntact) {
  // Callbacks that schedule grow the slot arena while events are pending;
  // relocated captures (inline, heap and non-trivial) must survive it.
  EventQueue q;
  std::vector<int> fired;
  auto shared = std::make_shared<int>(7);
  for (int i = 0; i < 4; ++i) {
    q.schedule(0, [&q, &fired, i, shared] {
      fired.push_back(i + *shared);
      for (int j = 0; j < 50; ++j) {
        q.schedule(1, [&fired, j, big = std::array<int, 32>{j}] {
          fired.push_back(big[0] - j);
        });
      }
    });
  }
  shared.reset();
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(fired.size(), 4u + 200u);
  EXPECT_EQ(fired[0], 7);
  EXPECT_EQ(fired[3], 10);
  for (std::size_t i = 4; i < fired.size(); ++i) EXPECT_EQ(fired[i], 0);
}

}  // namespace
}  // namespace rb::sim

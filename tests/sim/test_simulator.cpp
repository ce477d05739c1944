#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace rb::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  sim.schedule_at(5 * kMicrosecond, [&] {
    EXPECT_EQ(sim.now(), 5 * kMicrosecond);
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.now(), 5 * kMicrosecond);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<SimTime> fired;
  sim.schedule_in(10, [&] {
    fired.push_back(sim.now());
    sim.schedule_in(10, [&] { fired.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
}

TEST(Simulator, RejectsNegativeDelayAndPastTime) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(-1, [] {}), std::invalid_argument);
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(50, [] {}), std::invalid_argument);
}

TEST(Simulator, EventsCanCascade) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(1, recurse);
  };
  sim.schedule_in(1, recurse);
  EXPECT_EQ(sim.run(), 100u);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(10, [&] { fired.push_back(1); });
  sim.schedule_at(20, [&] { fired.push_back(2); });
  sim.schedule_at(30, [&] { fired.push_back(3); });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(1 * kSecond), 0u);
  EXPECT_EQ(sim.now(), 1 * kSecond);
  EXPECT_THROW(sim.run_until(0), std::invalid_argument);
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] { ++count; });
  sim.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelledEventNotRun) {
  Simulator sim;
  bool ran = false;
  auto handle = sim.schedule_in(10, [&] { ran = true; });
  handle.cancel();
  sim.run();
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace rb::sim

// Unit tests for the discrete-event simulator and stats.

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/stats.h"

namespace radd {
namespace {

TEST(Simulator, TimeStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.Run(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Millis(30), [&] { order.push_back(3); });
  sim.Schedule(Millis(10), [&] { order.push_back(1); });
  sim.Schedule(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(Simulator, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Millis(10), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  SimTime inner_time = 0;
  sim.Schedule(Millis(5), [&] {
    sim.Schedule(Millis(7), [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, Millis(12));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  uint64_t id = sim.Schedule(Millis(5), [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double cancel
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelUnknownIdFails) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(12345));
  EXPECT_FALSE(sim.Cancel(0));
}

TEST(Simulator, CancelOfAFiredEventIsNotDetected) {
  Simulator sim;
  int runs = 0;
  uint64_t id = sim.Schedule(Millis(5), [&] { ++runs; });
  sim.Run();
  EXPECT_EQ(runs, 1);
  // Fired ids are not tracked, so Cancel cannot tell this one from a
  // pending event: callers forget an id once its event fires.
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));
  // The tombstone it leaves never matches a later event.
  sim.Schedule(Millis(5), [&] { ++runs; });
  sim.Run();
  EXPECT_EQ(runs, 2);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.Schedule(Millis(10), [&] { ++count; });
  sim.Schedule(Millis(20), [&] { ++count; });
  sim.Schedule(Millis(30), [&] { ++count; });
  sim.RunUntil(Millis(25));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), Millis(25));
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(Millis(static_cast<uint64_t>(i)), [&] { ++count; });
  }
  EXPECT_TRUE(sim.RunUntilPredicate([&] { return count == 4; }));
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(sim.RunUntilPredicate([&] { return count == 100; }));
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(Micros(static_cast<uint64_t>(i)), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(Millis(30), 30000u);
  EXPECT_EQ(Seconds(2), 2000000u);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(75)), 75.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
}

TEST(Stats, CountersAccumulate) {
  Stats s;
  s.Add("x");
  s.Add("x", 4);
  EXPECT_EQ(s.Get("x"), 5u);
  EXPECT_EQ(s.Get("missing"), 0u);
  s.Reset();
  EXPECT_EQ(s.Get("x"), 0u);
}

TEST(Stats, ObservationsMeanAndPercentile) {
  Stats s;
  for (int i = 1; i <= 100; ++i) s.Observe("lat", i);
  EXPECT_DOUBLE_EQ(s.Mean("lat"), 50.5);
  EXPECT_NEAR(s.Percentile("lat", 50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile("lat", 99), 99.01, 0.1);
  EXPECT_EQ(s.SampleCount("lat"), 100u);
}

TEST(OpCounts, ArithmeticAndFormula) {
  OpCounts a{1, 2, 3, 4};
  OpCounts b{1, 1, 1, 1};
  a += b;
  EXPECT_EQ(a.local_reads, 2u);
  EXPECT_EQ(a.Total(), 14u);
  OpCounts d = a - b;
  EXPECT_EQ(d.local_writes, 2u);
  EXPECT_EQ((OpCounts{1, 1, 0, 0}).ToFormula(), "R+W");
  EXPECT_EQ((OpCounts{0, 0, 8, 0}).ToFormula(), "8*RR");
  EXPECT_EQ((OpCounts{}).ToFormula(), "0");
}

TEST(OpCounts, CostPricing) {
  OpCounts c{1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(c.CostMs(30, 30, 75, 75), 210.0);
}

}  // namespace
}  // namespace radd

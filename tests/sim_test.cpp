// Unit tests for the discrete-event simulation kernel.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/clock.h"
#include "src/sim/scheduler.h"

namespace micropnp {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(SimTime::FromMillis(1.5).nanos(), 1'500'000u);
  EXPECT_EQ(SimTime::FromMicros(2.0).nanos(), 2'000u);
  EXPECT_NEAR(SimTime::FromSeconds(0.25).seconds(), 0.25, 1e-12);
  EXPECT_NEAR(SimTime::FromMillis(10).micros(), 10'000.0, 1e-9);
}

TEST(SimTime, ArithmeticSaturatesAtZero) {
  SimTime a = SimTime::FromMillis(1);
  SimTime b = SimTime::FromMillis(2);
  EXPECT_EQ((b - a).nanos(), 1'000'000u);
  EXPECT_EQ((a - b).nanos(), 0u);  // saturating subtraction
}

TEST(SimTime, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::FromNanos(10).ToString(), "10ns");
  EXPECT_EQ(SimTime::FromMillis(12.345).ToString(), "12.345ms");
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(SimTime::FromMillis(3), [&] { order.push_back(3); });
  sched.ScheduleAt(SimTime::FromMillis(1), [&] { order.push_back(1); });
  sched.ScheduleAt(SimTime::FromMillis(2), [&] { order.push_back(2); });
  EXPECT_EQ(sched.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), SimTime::FromMillis(3));
}

TEST(Scheduler, EqualTimeEventsRunFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.ScheduleAt(SimTime::FromMillis(1), [&order, i] { order.push_back(i); });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler sched;
  SimTime seen;
  sched.ScheduleAt(SimTime::FromMillis(10), [&] {
    sched.ScheduleAfter(SimTime::FromMillis(5), [&] { seen = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(seen, SimTime::FromMillis(15));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool ran = false;
  auto id = sched.ScheduleAt(SimTime::FromMillis(1), [&] { ran = true; });
  EXPECT_TRUE(sched.Cancel(id));
  EXPECT_FALSE(sched.Cancel(id));  // double-cancel reports failure
  sched.Run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, StaleIdsNeverReachTheSlotsNextOccupant) {
  // An id's low half names the event's slot; running or cancelling the event
  // frees the slot for the next schedule and retires the id.
  constexpr uint64_t kSlotMask = 0xffffffff;
  Scheduler sched;
  EXPECT_FALSE(sched.Cancel(0));
  EXPECT_FALSE(sched.IsPending(0));
  int ran = 0;

  const Scheduler::EventId done = sched.ScheduleAfter(SimTime::FromMillis(1), [] {});
  sched.Run();
  const Scheduler::EventId after_run = sched.ScheduleAfter(SimTime::FromMillis(1), [&] { ++ran; });
  EXPECT_EQ(after_run & kSlotMask, done & kSlotMask);  // the slot is reused
  EXPECT_NE(after_run, done);
  EXPECT_FALSE(sched.IsPending(done));
  EXPECT_FALSE(sched.Cancel(done));
  EXPECT_TRUE(sched.IsPending(after_run));

  const Scheduler::EventId cancelled =
      sched.ScheduleAfter(SimTime::FromMillis(1), [&] { ran += 10; });
  EXPECT_TRUE(sched.Cancel(cancelled));
  const Scheduler::EventId after_cancel =
      sched.ScheduleAfter(SimTime::FromMillis(1), [&] { ++ran; });
  EXPECT_EQ(after_cancel & kSlotMask, cancelled & kSlotMask);
  EXPECT_NE(after_cancel, cancelled);
  EXPECT_FALSE(sched.IsPending(cancelled));
  EXPECT_FALSE(sched.Cancel(cancelled));
  EXPECT_TRUE(sched.IsPending(after_cancel));

  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_EQ(sched.Run(), 2u);
  EXPECT_EQ(ran, 2);  // both new occupants ran; the cancelled event did not
  EXPECT_FALSE(sched.Cancel(0));
  EXPECT_FALSE(sched.IsPending(0));
}

TEST(Scheduler, RunUntilLeavesLaterEventsPending) {
  Scheduler sched;
  int count = 0;
  sched.ScheduleAt(SimTime::FromMillis(1), [&] { ++count; });
  sched.ScheduleAt(SimTime::FromMillis(10), [&] { ++count; });
  EXPECT_EQ(sched.RunUntil(SimTime::FromMillis(5)), 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), SimTime::FromMillis(5));
  EXPECT_EQ(sched.pending(), 1u);
  sched.Run();
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) {
      sched.ScheduleAfter(SimTime::FromMicros(1), chain);
    }
  };
  sched.ScheduleAfter(SimTime::FromMicros(1), chain);
  sched.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), SimTime::FromMicros(10));
}

TEST(Scheduler, PastEventsClampToNow) {
  Scheduler sched;
  SimTime when;
  sched.ScheduleAt(SimTime::FromMillis(5), [&] {
    // Scheduling "in the past" runs at the current time, never earlier.
    sched.ScheduleAt(SimTime::FromMillis(1), [&] { when = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(when, SimTime::FromMillis(5));
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.Step());
  EXPECT_TRUE(sched.empty());
}

// Regression: a cancelled event before the deadline must not cause RunUntil
// to execute a live event scheduled *after* the deadline.
TEST(Scheduler, RunUntilDoesNotOvershootPastCancelledEvents) {
  Scheduler sched;
  bool late_ran = false;
  auto cancelled = sched.ScheduleAt(SimTime::FromMillis(1), [] {});
  sched.ScheduleAt(SimTime::FromMillis(100), [&] { late_ran = true; });
  sched.Cancel(cancelled);
  sched.RunUntil(SimTime::FromMillis(10));
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sched.now(), SimTime::FromMillis(10));
  sched.Run();
  EXPECT_TRUE(late_ran);
}

}  // namespace
}  // namespace micropnp

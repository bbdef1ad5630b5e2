// Differential and algorithmic tests for the Scheduler.
//
// The scheduler (src/sim/scheduler.h) must be observationally identical to
// the seed scheduler (tests/oracles/reference_scheduler.h): same execution
// order, same clock, same executed()/pending() counts, same Cancel() verdicts
// — for any trace of ScheduleAt / ScheduleAfter / Cancel / Step / RunUntil /
// Run, including actions that schedule or cancel from inside the callback and
// cancel-heavy bursts that make the scheduler compact its heap.  The property
// test below replays >= 1000 seeded random traces against both.
//
// The algorithmic half pins the complexity: a 100k schedule+cancel workload
// must finish in time linear in the operation count — the seed's linear-scan
// tombstone vector was quadratic here, which is the regression this guards
// against.

#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/oracles/reference_scheduler.h"
#include "src/sim/scheduler.h"

namespace micropnp {
namespace {

// ---------------------------------------------------------- deterministic ---

TEST(SchedulerTest, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::FromMillis(5.0);
  s.ScheduleAt(t, [&] { order.push_back(1); });
  s.ScheduleAt(t, [&] { order.push_back(2); });
  s.ScheduleAt(t, [&] { order.push_back(3); });
  EXPECT_EQ(s.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), t);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  Scheduler s;
  s.ScheduleAt(SimTime::FromMillis(10.0), [] {});
  s.RunUntil(SimTime::FromMillis(20.0));
  std::vector<int> order;
  s.ScheduleAt(SimTime::FromMillis(3.0), [&] { order.push_back(1); });  // in the past
  s.ScheduleAfter(SimTime::FromNanos(0), [&] { order.push_back(2); });
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), SimTime::FromMillis(20.0));
}

TEST(SchedulerTest, RunUntilIsInclusiveAndAdvancesClock) {
  Scheduler s;
  int ran = 0;
  s.ScheduleAt(SimTime::FromMillis(10.0), [&] { ++ran; });
  s.ScheduleAt(SimTime::FromMillis(10.0) + SimTime::FromNanos(1), [&] { ++ran; });
  EXPECT_EQ(s.RunUntil(SimTime::FromMillis(10.0)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), SimTime::FromMillis(10.0));
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SchedulerTest, CancelRemovesPendingEvent) {
  Scheduler s;
  int ran = 0;
  Scheduler::EventId id = s.ScheduleAt(SimTime::FromMillis(1.0), [&] { ++ran; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // already cancelled
  EXPECT_EQ(s.Run(), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, CancelAfterExecutionReturnsFalse) {
  Scheduler s;
  Scheduler::EventId id = s.ScheduleAt(SimTime::FromMillis(1.0), [] {});
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_FALSE(s.Cancel(id));
}

TEST(SchedulerTest, FarFutureEventsStillRun) {
  Scheduler s;
  // Past 2^60 ns (~36 years of simulated time).
  const uint64_t span_ns = uint64_t{1} << 60;
  int ran = 0;
  s.ScheduleAt(SimTime::FromNanos(span_ns + 12345), [&] { ++ran; });
  s.ScheduleAt(SimTime::FromNanos(17), [&] { ++ran; });
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), SimTime::FromNanos(span_ns + 12345));
}

TEST(SchedulerTest, CancelPreservesFifoAtEqualTimes) {
  // Cancelling one of several equal-time events must leave the others in
  // schedule order.
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::FromNanos(64);
  const Scheduler::EventId first = s.ScheduleAt(t, [&] { order.push_back(1); });
  s.ScheduleAt(t, [&] { order.push_back(2); });
  s.ScheduleAt(t, [&] { order.push_back(3); });
  EXPECT_TRUE(s.Cancel(first));
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));

  // Larger pattern at a whole-millisecond time (64-aligned in ns), with
  // cancels interleaved through the batch.
  order.clear();
  const SimTime t2 = SimTime::FromMillis(5.0);
  std::vector<Scheduler::EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(s.ScheduleAt(t2, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 16; i += 3) {
    EXPECT_TRUE(s.Cancel(ids[i]));
  }
  EXPECT_EQ(s.Run(), 10u);
  std::vector<int> expected;
  for (int i = 0; i < 16; ++i) {
    if (i % 3 != 0) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, CancelPreservesFifoAtFarFutureTimes) {
  // Same corner at 2^60 ns.
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::FromNanos(uint64_t{1} << 60);
  const Scheduler::EventId first = s.ScheduleAt(t, [&] { order.push_back(1); });
  s.ScheduleAt(t, [&] { order.push_back(2); });
  s.ScheduleAt(t, [&] { order.push_back(3); });
  EXPECT_TRUE(s.Cancel(first));
  EXPECT_EQ(s.Run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(SchedulerTest, ActionsCanScheduleAndCancelReentrantly) {
  Scheduler s;
  std::vector<int> order;
  Scheduler::EventId victim = s.ScheduleAt(SimTime::FromMillis(5.0), [&] { order.push_back(99); });
  s.ScheduleAt(SimTime::FromMillis(1.0), [&] {
    order.push_back(1);
    EXPECT_TRUE(s.Cancel(victim));
    s.ScheduleAfter(SimTime::FromMillis(1.0), [&] { order.push_back(2); });
    s.ScheduleAfter(SimTime::FromNanos(0), [&] { order.push_back(3); });  // same-instant
  });
  EXPECT_EQ(s.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// ----------------------------------------------------------- differential ---

// Applies an identical random trace to both schedulers, comparing every
// observable after every operation.  Both allocate EventIds sequentially from
// 1, so ids correspond across the pair and Cancel() can target "the same"
// event in each.
template <typename S>
struct Replica {
  S sched;
  std::vector<uint64_t> log;           // tags of executed events, in order
  std::vector<typename S::EventId> ids;  // top-level events, for Cancel
};

void RunTrace(uint64_t seed) {
  Replica<Scheduler> impl;
  Replica<ReferenceScheduler> ref;
  Rng rng(seed);

  uint64_t next_tag = 1;
  // Schedules one random event on both replicas.
  auto schedule_random = [&] {
    const uint64_t tag = next_tag++;
    // Mostly near-future delays; occasionally zero-delay, far-future, or
    // past 2^60 ns.
    uint64_t delay_ns;
    const uint64_t shape = rng.UniformInt(0, 9);
    bool align64 = false;
    if (shape == 0) {
      delay_ns = 0;
    } else if (shape == 1) {
      delay_ns = rng.UniformInt(uint64_t{1} << 40, uint64_t{1} << 45);
    } else if (shape == 2) {
      delay_ns = (uint64_t{1} << 60) + rng.UniformInt(0, 1u << 20);
    } else if (shape == 3) {
      // 64-aligned absolute targets: equal-time batches, so Cancel() must
      // leave the FIFO order of the survivors intact.
      delay_ns = rng.UniformInt(0, 1'000'000);
      align64 = true;
    } else {
      delay_ns = rng.UniformInt(0, 10'000'000);  // <= 10 ms
    }
    const bool absolute = align64 || rng.Bernoulli(0.3);
    // Some actions schedule a follow-up from inside the callback.
    const bool nested = rng.Bernoulli(0.2);
    const uint64_t nested_delay = rng.UniformInt(0, 1'000'000);
    auto make_action = [&](auto& replica) {
      auto* r = &replica;
      return [r, tag, nested, nested_delay] {
        r->log.push_back(tag);
        if (nested) {
          r->sched.ScheduleAfter(SimTime::FromNanos(nested_delay),
                                 [r, tag] { r->log.push_back(tag | (uint64_t{1} << 63)); });
        }
      };
    };
    if (absolute) {
      SimTime when = impl.sched.now() + SimTime::FromNanos(delay_ns);
      if (align64) {
        when = SimTime::FromNanos(when.nanos() & ~uint64_t{63});  // may clamp to now
      }
      impl.ids.push_back(impl.sched.ScheduleAt(when, make_action(impl)));
      ref.ids.push_back(ref.sched.ScheduleAt(when, make_action(ref)));
    } else {
      impl.ids.push_back(impl.sched.ScheduleAfter(SimTime::FromNanos(delay_ns),
                                                  make_action(impl)));
      ref.ids.push_back(ref.sched.ScheduleAfter(SimTime::FromNanos(delay_ns), make_action(ref)));
    }
  };

  const int ops = static_cast<int>(rng.UniformInt(20, 120));
  for (int op = 0; op < ops; ++op) {
    const uint64_t kind = rng.UniformInt(0, 99);
    if (kind < 4) {  // burst: schedule many, then cancel ~80% (compaction)
      const size_t first = impl.ids.size();
      const uint64_t burst = rng.UniformInt(80, 160);
      for (uint64_t i = 0; i < burst; ++i) {
        schedule_random();
        ASSERT_EQ(impl.ids.back(), ref.ids.back()) << "seed " << seed;
      }
      for (size_t i = first; i < impl.ids.size(); ++i) {
        if (rng.Bernoulli(0.8)) {
          ASSERT_EQ(impl.sched.Cancel(impl.ids[i]), ref.sched.Cancel(ref.ids[i]))
              << "seed " << seed << " op " << op;
        }
      }
    } else if (kind < 45) {  // schedule
      schedule_random();
      ASSERT_EQ(impl.ids.back(), ref.ids.back()) << "seed " << seed;
    } else if (kind < 60) {  // cancel a previously issued id (maybe stale)
      if (!impl.ids.empty()) {
        const size_t pick = rng.UniformInt(0, impl.ids.size() - 1);
        ASSERT_EQ(impl.sched.Cancel(impl.ids[pick]), ref.sched.Cancel(ref.ids[pick]))
            << "seed " << seed << " op " << op;
      }
    } else if (kind < 75) {  // step
      ASSERT_EQ(impl.sched.Step(), ref.sched.Step()) << "seed " << seed << " op " << op;
    } else if (kind < 95) {  // bounded run
      const uint64_t horizon = rng.UniformInt(0, 20'000'000);
      const SimTime deadline = impl.sched.now() + SimTime::FromNanos(horizon);
      ASSERT_EQ(impl.sched.RunUntil(deadline), ref.sched.RunUntil(deadline))
          << "seed " << seed << " op " << op;
    } else {  // full drain
      ASSERT_EQ(impl.sched.Run(), ref.sched.Run()) << "seed " << seed << " op " << op;
    }
    ASSERT_EQ(impl.sched.now().nanos(), ref.sched.now().nanos())
        << "seed " << seed << " op " << op;
    ASSERT_EQ(impl.sched.pending(), ref.sched.pending()) << "seed " << seed << " op " << op;
    ASSERT_EQ(impl.sched.executed(), ref.sched.executed()) << "seed " << seed << " op " << op;
    ASSERT_EQ(impl.log, ref.log) << "seed " << seed << " op " << op;
  }
  // Drain completely: the tail must agree too.
  ASSERT_EQ(impl.sched.Run(), ref.sched.Run()) << "seed " << seed;
  ASSERT_EQ(impl.log, ref.log) << "seed " << seed;
  ASSERT_TRUE(impl.sched.empty());
  ASSERT_EQ(impl.sched.now().nanos(), ref.sched.now().nanos()) << "seed " << seed;
}

TEST(SchedulerDifferentialTest, MatchesReferenceSchedulerOnRandomTraces) {
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    RunTrace(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// ------------------------------------------------------------- complexity ---

TEST(SchedulerLinearityTest, HundredThousandScheduleCancelIsLinear) {
  constexpr int kOps = 100'000;
  Scheduler s;
  Rng rng(0x5eed);
  std::vector<Scheduler::EventId> ids;
  ids.reserve(kOps);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    ids.push_back(s.ScheduleAfter(SimTime::FromNanos(rng.UniformInt(1, 100'000'000)), [] {}));
  }
  for (Scheduler::EventId id : ids) {
    EXPECT_TRUE(s.Cancel(id));
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
  const SchedulerStats& stats = s.stats();
  EXPECT_EQ(stats.scheduled, static_cast<uint64_t>(kOps));
  EXPECT_EQ(stats.cancelled, static_cast<uint64_t>(kOps));
  // Generous wall-clock ceiling: linear runs in well under a second even
  // under sanitizers; the quadratic seed (O(pending) work per Cancel, ~10^10
  // operations for this workload) took minutes.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 20.0);

  // The scheduler must still be fully functional afterwards.
  int ran = 0;
  s.ScheduleAfter(SimTime::FromMillis(1.0), [&] { ++ran; });
  EXPECT_EQ(s.Run(), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(SchedulerLinearityTest, InterleavedScheduleCancelExecuteStaysBounded) {
  // Mixed workload: schedule bursts, cancel half, drain by deadline — the
  // gateway endpoint's timer pattern (every request arms a timer; most are
  // cancelled on completion, few fire).
  constexpr int kRounds = 200;
  constexpr int kPerRound = 500;
  Scheduler s;
  Rng rng(0xcafe);
  uint64_t fired = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Scheduler::EventId> ids;
    ids.reserve(kPerRound);
    for (int i = 0; i < kPerRound; ++i) {
      ids.push_back(s.ScheduleAfter(SimTime::FromNanos(rng.UniformInt(1, 2'000'000'000)),
                                    [&] { ++fired; }));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      s.Cancel(ids[i]);
    }
    s.RunUntil(s.now() + SimTime::FromMillis(100.0));
  }
  s.Run();
  const uint64_t total_ops = uint64_t{kRounds} * kPerRound;
  EXPECT_EQ(s.stats().scheduled, total_ops);
  EXPECT_EQ(fired + s.stats().cancelled, total_ops);
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace micropnp

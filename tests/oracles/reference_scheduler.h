// The seed discrete-event scheduler: a binary heap of (time, sequence) keys.
//
// Kept as the obviously-correct reference implementation for the timing
// wheel's differential property test (tests/timing_wheel_test.cpp): random
// traces of ScheduleAt/ScheduleAfter/Cancel/Step/RunUntil replay against both
// schedulers and must produce identical execution order, clock values and
// executed() counts.
//
// One deliberate change from the seed: actions live in a hash map instead of
// a linearly scanned tombstone vector, so Cancel() and per-event lookup are
// O(1) instead of O(pending) — large differential traces would otherwise be
// quadratic in the reference itself.  Scheduling stays O(log pending) via the
// heap; the production Scheduler (src/sim/scheduler.h) is the O(1) wheel.

#ifndef TESTS_ORACLES_REFERENCE_SCHEDULER_H_
#define TESTS_ORACLES_REFERENCE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/sim/clock.h"

namespace micropnp {

class ReferenceScheduler {
 public:
  using Action = std::function<void()>;
  using EventId = uint64_t;

  ReferenceScheduler() = default;
  ReferenceScheduler(const ReferenceScheduler&) = delete;
  ReferenceScheduler& operator=(const ReferenceScheduler&) = delete;

  SimTime now() const { return now_; }

  EventId ScheduleAt(SimTime when, Action action);
  EventId ScheduleAfter(SimDuration delay, Action action) {
    return ScheduleAt(now_ + delay, std::move(action));
  }

  bool Cancel(EventId id);

  size_t Run();
  size_t RunUntil(SimTime deadline);
  bool Step();

  bool empty() const { return actions_.empty(); }
  size_t pending() const { return actions_.size(); }
  uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t sequence;
    EventId id;
    // Ordered as a max-heap by default; invert for earliest-first.
    bool operator<(const Entry& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return sequence > other.sequence;
    }
  };

  SimTime now_;
  uint64_t next_sequence_ = 0;
  EventId next_id_ = 1;
  uint64_t executed_ = 0;
  std::priority_queue<Entry> queue_;
  // Live actions by id; a queue entry whose id is absent was cancelled and
  // is discarded when popped.
  std::unordered_map<EventId, Action> actions_;
};

}  // namespace micropnp

#endif  // TESTS_ORACLES_REFERENCE_SCHEDULER_H_

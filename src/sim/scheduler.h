// Discrete-event scheduler on a binary heap.
//
// Events are closures ordered by (time, id).  Ids are issued in schedule
// order, so equal-time events run in FIFO order, which keeps the simulation
// deterministic.  The heap holds {when, id} keys and a hash map holds the
// actions of live events.  Cancel() erases the action; the key it leaves (a
// tombstone) is discarded when it reaches the top.  When the heap holds more
// than 64 entries and over twice as many as there are live events, Cancel()
// drops every tombstone and re-heapifies, so memory stays O(peak pending).
// Differentially tested in tests/scheduler_test.cpp against the seed
// scheduler in tests/oracles/.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/sim/clock.h"

namespace micropnp {

// Cheap monotonic probes of the scheduler's work.
struct SchedulerStats {
  uint64_t scheduled = 0;
  uint64_t cancelled = 0;
  // Always 0: the heap never re-slots an entry.  Kept because the fleet
  // lifecycle benchmark still reports it.
  uint64_t cascaded_entries = 0;
};

class Scheduler {
 public:
  using Action = std::function<void()>;
  using EventId = uint64_t;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  // Schedules `action` to run at absolute time `when` (clamped to now).
  // Returns an id usable with Cancel().
  EventId ScheduleAt(SimTime when, Action action);

  // Schedules `action` to run `delay` after the current time.
  EventId ScheduleAfter(SimDuration delay, Action action) {
    return ScheduleAt(now_ + delay, std::move(action));
  }

  // Cancels a pending event.  Returns false if it already ran or is unknown.
  bool Cancel(EventId id);

  // Runs events until the queue drains.  Returns the number of events run.
  size_t Run();

  // Runs events with time <= deadline; leaves later events queued and
  // advances the clock to `deadline`.  Returns the number of events run.
  size_t RunUntil(SimTime deadline);

  // Runs a single event if one is pending.  Returns true if an event ran.
  bool Step();

  bool empty() const { return actions_.empty(); }
  size_t pending() const { return actions_.size(); }

  // Total events executed since construction (for sanity checks in tests).
  uint64_t executed() const { return executed_; }

  const SchedulerStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t when_ns;
    EventId id;
  };

  // Discards tombstones from the top of the heap; true when the earliest
  // live event is due at or before `limit_ns`.  Runs nothing.
  bool NextDue(uint64_t limit_ns);
  // Pops the heap's top, which NextDue found live, and runs its action.
  void RunTop();
  // Drops every tombstone and restores the heap property.
  void Compact();

  SimTime now_;
  EventId next_id_ = 1;
  uint64_t executed_ = 0;
  std::vector<Entry> heap_;  // earliest (when, id) at the front
  std::unordered_map<EventId, Action> actions_;  // live events only
  SchedulerStats stats_;
};

}  // namespace micropnp

#endif  // SRC_SIM_SCHEDULER_H_

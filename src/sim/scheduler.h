// Discrete-event scheduler on a binary heap.
//
// Events are closures ordered by (time, seq).  seq counts schedules, so
// equal-time events run in FIFO order, which keeps the simulation
// deterministic.  The heap holds {when, seq, slot, generation} keys and the
// actions live in a slot vector with a free list: an event reaches its
// action by index, and a warm scheduler allocates nothing for a closure
// that fits std::function's inline buffer.
//
// An EventId is a handle, (generation << 32) | (slot + 1), never 0.  Running
// or cancelling an event bumps its slot's generation and frees the slot, so
// a heap key is live exactly while its generation equals its slot's, and a
// stale id never reaches the slot's next occupant.  The generation is 32
// bits, so a slot repeats a handle only after 2^32 reuses.  An id means
// something only to the scheduler that issued it.
//
// Cancel() leaves the event's heap key behind as a tombstone, discarded when
// it reaches the top.  When the heap holds more than 64 entries and over
// twice as many as there are live events, Cancel() drops every tombstone
// and re-heapifies, so memory stays O(peak pending).  Differentially tested
// in tests/scheduler_test.cpp against the seed scheduler in tests/oracles/.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
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
  // Returns a non-zero id usable with Cancel().
  EventId ScheduleAt(SimTime when, Action action);

  // Schedules `action` to run `delay` after the current time.
  EventId ScheduleAfter(SimDuration delay, Action action) {
    return ScheduleAt(now_ + delay, std::move(action));
  }

  // Cancels a pending event.  Returns false if it already ran or is unknown.
  bool Cancel(EventId id);
  // True until the event runs or is cancelled.
  bool IsPending(EventId id) const {
    const uint64_t slot = (id & 0xffffffffull) - 1;  // id 0 wraps out of range
    return slot < slots_.size() && slots_[slot].generation == (id >> 32);
  }

  // Runs events until the queue drains.  Returns the number of events run.
  size_t Run();

  // Runs events with time <= deadline; leaves later events queued and
  // advances the clock to `deadline`.  Returns the number of events run.
  size_t RunUntil(SimTime deadline);

  // Runs a single event if one is pending.  Returns true if an event ran.
  bool Step();

  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }

  // Total events executed since construction (for sanity checks in tests).
  uint64_t executed() const { return executed_; }

  const SchedulerStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t when_ns;
    uint64_t seq;  // schedule order: the tie-break at equal times
    uint32_t slot;
    uint32_t generation;
  };
  struct Slot {
    Action action;  // empty while the slot is free
    uint32_t generation = 0;
  };

  bool IsLive(const Entry& entry) const {
    return slots_[entry.slot].generation == entry.generation;
  }
  // Ends the occupancy of `slot` (its event ran or was cancelled): drops
  // the action, retires its handle and returns the slot to the free list.
  void Release(uint32_t slot);
  // Discards tombstones from the top of the heap; true when the earliest
  // live event is due at or before `limit_ns`.  Runs nothing.
  bool NextDue(uint64_t limit_ns);
  // Pops the heap's top, which NextDue found live, and runs its action.
  void RunTop();
  // Drops every tombstone and restores the heap property.
  void Compact();

  SimTime now_;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  std::vector<Entry> heap_;  // earliest (when, seq) at the front
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  SchedulerStats stats_;
};

}  // namespace micropnp

#endif  // SRC_SIM_SCHEDULER_H_

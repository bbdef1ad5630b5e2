// Discrete-event scheduler on a hierarchical timing wheel.
//
// Events are closures ordered by (time, insertion order).  Equal-time events
// run in FIFO order, which keeps the simulation deterministic.
//
// The seed implementation was a binary heap plus a linear-scan tombstone
// vector: O(pending) per Cancel() and per executed event, which capped the
// gateway benchmarks at a few dozen Things.  This scheduler is the classic
// kernel-timer answer to mass deadlines — a hashed hierarchical timing wheel
// (Varghese & Lauck): 10 levels of 64 slots each, 1 ns resolution at level 0,
// spanning 2^60 ns (~36 years of simulated time) before overflowing to a
// sorted spill map.  Schedule and Cancel are O(1); finding the next event
// scans per-level occupancy bitmaps and cascades higher-level slots on demand,
// so an event is re-slotted at most once per level over its lifetime.
//
// Exact discrete-event semantics are preserved (and differentially tested in
// tests/timing_wheel_test.cpp against the seed heap in tests/oracles/):
// events reach the ready list only when they share a single timestamp —
// via a level-0 slot (which covers exactly one nanosecond) or due exactly at
// the wheel origin after a cascade or overflow migration — and every such
// batch is sorted by sequence to restore global FIFO order.  Cancelled
// events are removed from their slot immediately (swap-and-pop, with the
// id -> location table patched), so the wheel holds no tombstones and memory
// stays O(pending events); the sequence sort is what makes that reordering
// invisible.

#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/sim/clock.h"

namespace micropnp {

// Cheap monotonic probes of the wheel's algorithmic work, used by the
// linearity regression test: a schedule+cancel workload must cascade nothing,
// and total work must stay proportional to the number of operations.
struct SchedulerStats {
  uint64_t scheduled = 0;
  uint64_t cancelled = 0;
  uint64_t cascaded_entries = 0;   // entries re-slotted by a cascade
  uint64_t slot_collections = 0;   // level-0 slots moved to the ready list
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

  bool empty() const { return records_.empty(); }
  size_t pending() const { return records_.size(); }

  // Total events executed since construction (for sanity checks in tests).
  uint64_t executed() const { return executed_; }

  const SchedulerStats& stats() const { return stats_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;           // 64
  static constexpr int kLevels = 10;                      // 2^60 ns span
  static constexpr int kSpanBits = kSlotBits * kLevels;   // 60

  enum class Location : uint8_t { kWheel, kOverflow, kReady };

  struct Entry {
    uint64_t when_ns;
    uint64_t sequence;
    EventId id;
  };
  struct Level {
    uint64_t occupied = 0;  // bit s set <=> slots[s] non-empty
    std::array<std::vector<Entry>, kSlots> slots;
  };
  // Where a pending event currently lives, so Cancel() can excise it in O(1).
  struct Record {
    Action action;
    uint64_t when_ns = 0;
    Location location = Location::kReady;
    uint8_t level = 0;
    uint8_t slot = 0;
    uint32_t index = 0;  // position inside the slot / overflow bucket vector
  };

  // Slots the entry relative to base_ns_ and updates its record.
  void Insert(const Entry& entry, Record& record);
  // Removes the entry from its wheel slot or overflow bucket (swap-and-pop,
  // patching the displaced entry's record).  kReady entries stay in place and
  // are skipped when popped.
  void Excise(const Record& record, EventId id);
  // Advances the wheel (cascading as needed, never past `limit_ns`) until the
  // ready list holds a live event, or returns false if the next live event
  // lies beyond the limit (or none exists).  Does not run anything.
  bool AdvanceToNext(uint64_t limit_ns);
  // Pops the live head of the ready list and runs it (caller guarantees one
  // exists via AdvanceToNext).
  void ExecuteReadyHead();
  // Restores FIFO order among the same-timestamp entries on the ready list
  // (Excise's swap-and-pop perturbs slot/bucket order, so every batch moved
  // onto the list must be re-sorted before serving).
  void SortReadyBySequence();

  SimTime now_;
  // Wheel reference time: every pending event satisfies when >= base_ns_, and
  // slot indices are the bits of the absolute timestamp relative to this
  // origin.  Always <= now_.nanos() at public API boundaries.
  uint64_t base_ns_ = 0;
  uint64_t next_sequence_ = 0;
  EventId next_id_ = 1;
  uint64_t executed_ = 0;
  std::array<Level, kLevels> levels_;
  // Events more than 2^60 ns past base_: kept in a sorted spill map and
  // migrated into the wheel when base_ reaches their window.
  std::map<uint64_t, std::vector<Entry>> overflow_;
  // Events due at base_ns_, sorted by sequence, consumed front-to-back.
  std::vector<Entry> ready_;
  size_t ready_next_ = 0;
  std::unordered_map<EventId, Record> records_;
  SchedulerStats stats_;
};

}  // namespace micropnp

#endif  // SRC_SIM_SCHEDULER_H_

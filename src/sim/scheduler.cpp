#include "src/sim/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace micropnp {

namespace {

// The std heap algorithms keep the greatest element at the front, so the
// entry due later (or, at equal times, scheduled later) compares less.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.when_ns != b.when_ns ? a.when_ns > b.when_ns : a.seq > b.seq;
};

}  // namespace

Scheduler::EventId Scheduler::ScheduleAt(SimTime when, Action action) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& occupant = slots_[slot];
  occupant.action = std::move(action);
  heap_.push_back(Entry{when.nanos(), next_seq_++, slot, occupant.generation});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  ++live_;
  ++stats_.scheduled;
  return (uint64_t{occupant.generation} << 32) | (slot + 1);
}

void Scheduler::Release(uint32_t slot) {
  // The action is destroyed last, when the slot is consistent again: its
  // captures' destructors may schedule or cancel.
  Action retired = std::move(slots_[slot].action);
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
  --live_;
}

bool Scheduler::Cancel(EventId id) {
  if (!IsPending(id)) {
    return false;
  }
  Release(static_cast<uint32_t>(id) - 1);
  ++stats_.cancelled;
  if (heap_.size() > 64 && heap_.size() > 2 * live_) {
    Compact();
  }
  return true;
}

void Scheduler::Compact() {
  std::erase_if(heap_, [this](const Entry& entry) { return !IsLive(entry); });
  std::make_heap(heap_.begin(), heap_.end(), kLater);
}

bool Scheduler::NextDue(uint64_t limit_ns) {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (IsLive(top)) {
      return top.when_ns <= limit_ns;
    }
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();
  }
  return false;
}

void Scheduler::RunTop() {
  // Copy and pop before running: the action may schedule or cancel (and so
  // grow the slot vector or compact the heap), so nothing here may point
  // into either.  Releasing the slot first retires the event's id, so a
  // Cancel of it from inside the action answers false.
  const Entry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  heap_.pop_back();
  Action action = std::move(slots_[entry.slot].action);
  Release(entry.slot);
  now_ = SimTime::FromNanos(entry.when_ns);
  ++executed_;
  action();
}

bool Scheduler::Step() {
  if (!NextDue(std::numeric_limits<uint64_t>::max())) {
    return false;
  }
  RunTop();
  return true;
}

size_t Scheduler::Run() {
  size_t count = 0;
  while (Step()) {
    ++count;
  }
  return count;
}

size_t Scheduler::RunUntil(SimTime deadline) {
  size_t count = 0;
  while (NextDue(deadline.nanos())) {
    RunTop();
    ++count;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return count;
}

}  // namespace micropnp

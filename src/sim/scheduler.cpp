#include "src/sim/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace micropnp {

namespace {

// The std heap algorithms keep the greatest element at the front, so the
// entry due later (or, at equal times, scheduled later) compares less.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.when_ns != b.when_ns ? a.when_ns > b.when_ns : a.id > b.id;
};

}  // namespace

Scheduler::EventId Scheduler::ScheduleAt(SimTime when, Action action) {
  if (when < now_) {
    when = now_;
  }
  const EventId id = next_id_++;
  heap_.push_back(Entry{when.nanos(), id});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  actions_.emplace(id, std::move(action));
  ++stats_.scheduled;
  return id;
}

bool Scheduler::Cancel(EventId id) {
  if (actions_.erase(id) == 0) {
    return false;
  }
  ++stats_.cancelled;
  if (heap_.size() > 64 && heap_.size() > 2 * actions_.size()) {
    Compact();
  }
  return true;
}

void Scheduler::Compact() {
  std::erase_if(heap_, [this](const Entry& entry) { return !actions_.contains(entry.id); });
  std::make_heap(heap_.begin(), heap_.end(), kLater);
}

bool Scheduler::NextDue(uint64_t limit_ns) {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (actions_.contains(top.id)) {
      return top.when_ns <= limit_ns;
    }
    std::pop_heap(heap_.begin(), heap_.end(), kLater);
    heap_.pop_back();
  }
  return false;
}

void Scheduler::RunTop() {
  // Copy and pop before running: the action may schedule or cancel (and so
  // grow or compact the heap), so nothing here may point into it.
  const Entry entry = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  heap_.pop_back();
  auto it = actions_.find(entry.id);
  Action action = std::move(it->second);
  actions_.erase(it);
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

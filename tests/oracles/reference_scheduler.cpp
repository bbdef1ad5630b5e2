#include "tests/oracles/reference_scheduler.h"

#include <utility>

namespace micropnp {

ReferenceScheduler::EventId ReferenceScheduler::ScheduleAt(SimTime when, Action action) {
  if (when < now_) {
    when = now_;
  }
  const EventId id = next_id_++;
  queue_.push(Entry{when, next_sequence_++, id});
  actions_.emplace(id, std::move(action));
  return id;
}

bool ReferenceScheduler::Cancel(EventId id) {
  return actions_.erase(id) != 0;
}

bool ReferenceScheduler::Step() {
  while (!queue_.empty()) {
    Entry entry = queue_.top();
    queue_.pop();
    auto it = actions_.find(entry.id);
    if (it == actions_.end()) {
      continue;  // cancelled
    }
    Action action = std::move(it->second);
    actions_.erase(it);
    now_ = entry.when;
    ++executed_;
    action();
    return true;
  }
  return false;
}

size_t ReferenceScheduler::Run() {
  size_t count = 0;
  while (Step()) {
    ++count;
  }
  return count;
}

size_t ReferenceScheduler::RunUntil(SimTime deadline) {
  size_t count = 0;
  // Cancelled entries (tombstones) are discarded inline; Step() must not be
  // used here because it would run the next *live* event even when that
  // event lies beyond the deadline.
  while (!queue_.empty() && queue_.top().when <= deadline) {
    Entry entry = queue_.top();
    queue_.pop();
    auto it = actions_.find(entry.id);
    if (it == actions_.end()) {
      continue;  // cancelled
    }
    Action action = std::move(it->second);
    actions_.erase(it);
    now_ = entry.when;
    ++executed_;
    action();
    ++count;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return count;
}

}  // namespace micropnp

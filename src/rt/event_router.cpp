#include "src/rt/event_router.h"

namespace micropnp {

bool EventRouter::Post(int driver_slot, const Event& event) {
  if (event.is_error()) {
    return PostError(driver_slot, event);
  }
  return Enqueue(regular_, driver_slot, event);
}

bool EventRouter::PostError(int driver_slot, const Event& event) {
  return Enqueue(errors_, driver_slot, event);
}

bool EventRouter::Enqueue(Queue& queue, int driver_slot, const Event& event) {
  cycles_ += kRouterEnqueueCycles;
  if (queue.full()) {
    ++events_dropped_;
    return false;
  }
  queue.push_back(Entry{driver_slot, event});
  if (on_post_) {
    on_post_();
  }
  return true;
}

bool EventRouter::DispatchOne(const Sink& sink) {
  Queue* queue = nullptr;
  if (!errors_.empty()) {
    queue = &errors_;
  } else if (!regular_.empty()) {
    queue = &regular_;
  } else {
    return false;
  }
  Entry entry = std::move(queue->front());
  queue->pop_front();
  cycles_ += kRouterDispatchCycles;
  sink(entry.slot, entry.event);
  return true;
}

size_t EventRouter::ProcessAll(const Sink& sink) {
  const size_t budget = pending();
  size_t count = 0;
  while (count < budget && DispatchOne(sink)) {
    ++count;
  }
  return count;
}

}  // namespace micropnp

// The μPnP event router (Section 4.2).
//
// "The router implements two queues: a regular FIFO queue for event
// processing and a priority queue for dispatching error messages.  When an
// event is placed inside a queue, control is immediately transferred back to
// the originator."
//
// Events are addressed to driver slots (one slot per active driver
// instance).  DispatchOne drains the error queue before the regular queue.
// Both queues are kQueueDepth-entry rings held inline in the router, as the
// MCU's statically dimensioned queues are: a router costs no heap, and a
// full queue drops the new event.
// The router charges an AVR cycle cost per enqueue and per dispatch,
// calibrated so that routing one event costs ~77.79 us at 16 MHz — the
// Section 6.2 measurement.

#ifndef SRC_RT_EVENT_ROUTER_H_
#define SRC_RT_EVENT_ROUTER_H_

#include <cstdint>
#include <functional>

#include "src/common/fixed_ring.h"
#include "src/rt/event.h"

namespace micropnp {

// Cycle model at 16 MHz: enqueue + dispatch = 1244 cycles = 77.75 us.
inline constexpr uint32_t kRouterEnqueueCycles = 420;
inline constexpr uint32_t kRouterDispatchCycles = 824;
inline constexpr double kMcuClockHz = 16e6;

class EventRouter {
 public:
  static constexpr size_t kQueueDepth = 16;  // embedded queue dimensioning

  using Sink = std::function<void(int driver_slot, const Event&)>;

  EventRouter() = default;

  // Enqueues an event; error events go to the priority queue (Event::is_error
  // decides; PostError forces it for runtime-generated faults).  Returns
  // false if the queue is full (event dropped, counted).
  bool Post(int driver_slot, const Event& event);
  bool PostError(int driver_slot, const Event& event);

  // Dispatches the highest-priority pending event into `sink`.  Errors
  // first, then FIFO.  Returns false when idle.
  bool DispatchOne(const Sink& sink);

  // Drains at most as many events as were pending at entry, so a handler
  // that re-posts on every dispatch cannot livelock the caller; leftover and
  // newly posted work waits for the next drain.  (Error events posted during
  // the drain still preempt within that budget — each one then displaces one
  // entry that was pending at entry.)  Returns the number dispatched.
  size_t ProcessAll(const Sink& sink);

  bool idle() const { return regular_.empty() && errors_.empty(); }
  size_t pending() const { return regular_.size() + errors_.size(); }

  // Invoked after every successful enqueue; the driver manager uses this to
  // schedule a dispatch pump so posts from timer/bus callbacks get processed
  // without an explicit pump call.
  using WakeupHook = std::function<void()>;
  void set_on_post(WakeupHook hook) { on_post_ = std::move(hook); }

  uint64_t events_dropped() const { return events_dropped_; }
  uint64_t cycles() const { return cycles_; }
  double MicrosAtMcuClock() const { return static_cast<double>(cycles_) / kMcuClockHz * 1e6; }

 private:
  struct Entry {
    int slot;
    Event event;
  };
  using Queue = FixedRing<Entry, kQueueDepth>;

  // Enqueues into `queue`, or drops and counts when it is full.
  bool Enqueue(Queue& queue, int driver_slot, const Event& event);

  Queue regular_;
  Queue errors_;
  WakeupHook on_post_;
  uint64_t events_dropped_ = 0;
  uint64_t cycles_ = 0;
};

}  // namespace micropnp

#endif  // SRC_RT_EVENT_ROUTER_H_

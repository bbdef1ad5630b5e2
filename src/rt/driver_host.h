// A driver host: one installed driver bound to one channel.
//
// The host owns the VM instance and the native library instances for the
// driver's imports, and implements the VmHost interface: `signal this.*`
// routes back into the event router, `signal lib.*` into the native
// libraries — a direct virtual call instead of the seed's per-dispatch
// std::function pair.  Handler results (`return` in the DSL) are surfaced
// through the result callback, which the Thing routes to a pending remote
// read, an active stream, or a local observer (Section 5.3.1).
//
// Hosts share one immutable DecodedImage per device type (see
// DriverManager's decode cache); only globals/arrays are per-host state.

#ifndef SRC_RT_DRIVER_HOST_H_
#define SRC_RT_DRIVER_HOST_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "src/bus/channel_bus.h"
#include "src/rt/decoded_image.h"
#include "src/rt/event_router.h"
#include "src/rt/native_libs.h"
#include "src/rt/vm.h"
#include "src/sim/scheduler.h"

namespace micropnp {

// A value a driver produced with `return`.
struct ProducedValue {
  bool is_array = false;
  int32_t scalar = 0;
  std::vector<uint8_t> bytes;
};

class DriverHost final : public VmHost {
 public:
  DriverHost(std::shared_ptr<const DecodedImage> image, int slot, Scheduler& scheduler,
             ChannelBus& bus, EventRouter& router);

  int slot() const { return slot_; }
  DeviceTypeId device_id() const { return vm_.image().device_id; }

  // Router sink entry point: executes the driver's handler for `event`.
  void HandleEvent(const Event& event);

  // --- VmHost ---------------------------------------------------------------
  void OnSelfSignal(const Event& event) override;
  void OnLibSignal(LibraryId lib, LibraryFunctionId fn,
                   std::span<const int32_t> args) override;

  using ResultHandler = std::function<void(const ProducedValue&)>;
  void set_result_handler(ResultHandler handler) { result_handler_ = std::move(handler); }

  // Releases claimed hardware (called around the destroy event).
  void Teardown();

  Vm& vm() { return vm_; }
  const Vm& vm() const { return vm_; }
  uint64_t traps() const { return traps_; }
  uint64_t events_handled() const { return events_handled_; }

 private:
  NativeLibrary* LibraryFor(LibraryId id);

  int slot_;
  Scheduler& scheduler_;
  ChannelBus& bus_;
  EventRouter& router_;
  Vm vm_;
  std::array<std::unique_ptr<NativeLibrary>, kLibraryCount> libs_;
  ResultHandler result_handler_;
  uint64_t traps_ = 0;
  uint64_t events_handled_ = 0;
};

}  // namespace micropnp

#endif  // SRC_RT_DRIVER_HOST_H_

#include "src/rt/driver_host.h"

#include "src/common/logging.h"

namespace micropnp {

DriverHost::DriverHost(std::shared_ptr<const DecodedImage> image, int slot, Scheduler& scheduler,
                       ChannelBus& bus, EventRouter& router)
    : slot_(slot), scheduler_(scheduler), bus_(bus), router_(router), vm_(std::move(image)) {
  NativeLibContext ctx;
  ctx.scheduler = &scheduler_;
  ctx.bus = &bus_;
  ctx.router = &router_;
  ctx.driver_slot = slot_;
  for (LibraryId lib : vm_.image().imports) {
    if (lib < libs_.size()) {
      libs_[lib] = MakeNativeLibrary(lib, ctx);
    }
  }
}

NativeLibrary* DriverHost::LibraryFor(LibraryId id) {
  return id < libs_.size() ? libs_[id].get() : nullptr;
}

void DriverHost::OnSelfSignal(const Event& event) { router_.Post(slot_, event); }

void DriverHost::OnLibSignal(LibraryId lib, LibraryFunctionId fn,
                             std::span<const int32_t> args) {
  NativeLibrary* library = LibraryFor(lib);
  if (library == nullptr) {
    // Driver signalled a library it never imported; a strict embedded
    // runtime faults the driver with a configuration error.
    router_.PostError(slot_, Event::Of(kErrorInvalidConfiguration));
    return;
  }
  library->Invoke(fn, args);
}

void DriverHost::HandleEvent(const Event& event) {
  ++events_handled_;
  Vm::ExecResult result = vm_.Dispatch(event, this);

  switch (result.outcome) {
    case Vm::Outcome::kValue: {
      if (result_handler_) {
        ProducedValue v;
        v.scalar = result.value;
        result_handler_(v);
      }
      break;
    }
    case Vm::Outcome::kArray: {
      if (result_handler_) {
        // The VM result is a view into VM-owned storage; the copy happens
        // here, only when someone is listening.
        ProducedValue v;
        v.is_array = true;
        v.bytes.assign(result.array.begin(), result.array.end());
        result_handler_(v);
      }
      break;
    }
    case Vm::Outcome::kTrap:
      ++traps_;
      MLOG(kWarning, "rt") << "driver " << FormatDeviceTypeId(device_id())
                           << " trapped: " << result.trap.ToString();
      break;
    case Vm::Outcome::kDone:
    case Vm::Outcome::kNoHandler:
      break;
  }
}

void DriverHost::Teardown() {
  for (std::unique_ptr<NativeLibrary>& lib : libs_) {
    if (lib != nullptr) {
      lib->Teardown();
    }
  }
}

}  // namespace micropnp

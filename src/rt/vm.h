// The μPnP virtual machine (Section 4.2).
//
// "A virtual machine implementing a stack-based execution model executes
// driver bytecode.  This virtual machine implements a single operand stack
// and concurrency is realized through event-based programming."
//
// Handlers run to completion; there is no preemption and no locking.  The
// interpreter charges each instruction's modeled AVR cycle cost (see
// src/dsl/bytecode.h) so the Section 6.2 timing numbers can be reproduced on
// any host.
//
// Execution follows a verify → decode → execute pipeline: the VM runs over a
// load-time verified DecodedImage (src/rt/decoded_image.h), so the hot loop
// performs no opcode validation, no code-bounds checks, no operand
// re-decoding and no stack-depth checks.  The only runtime traps left are
// the ones that depend on runtime state: division by zero, dynamic array
// subscripts and the watchdog.  The seed byte-walking interpreter lives on as
// the test oracle ReferenceVm (tests/oracles/reference_vm.h); the
// differential tests hold both to bit-identical instruction/cycle accounting.

#ifndef SRC_RT_VM_H_
#define SRC_RT_VM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/dsl/bytecode.h"
#include "src/dsl/driver_image.h"
#include "src/rt/decoded_image.h"
#include "src/rt/event.h"

namespace micropnp {

inline constexpr uint64_t kVmWatchdogInstructions = 100'000;  // runaway handler guard

// What the VM signals out of a running handler.  DriverHost implements this
// over the event router and the native libraries; tests implement it with
// recording stubs.  A plain virtual interface replaces the seed's
// per-dispatch std::function pair: no type-erased call overhead and no
// allocation to wire a host up.
class VmHost {
 public:
  virtual ~VmHost() = default;
  // A driver-internal event (kSignalSelf): route back to this driver.
  virtual void OnSelfSignal(const Event& event) = 0;
  // A native library invocation (kSignalLib).
  virtual void OnLibSignal(LibraryId lib, LibraryFunctionId fn,
                           std::span<const int32_t> args) = 0;
};

class Vm {
 public:
  // What a handler execution produced.
  enum class Outcome : uint8_t {
    kDone,       // ran to completion, no result
    kValue,      // `return expr;` -> scalar result
    kArray,      // `return arr;`  -> byte-buffer result
    kNoHandler,  // driver does not handle this event
    kTrap,       // fault: div/0, dynamic array subscript, watchdog
  };

  struct ExecResult {
    Outcome outcome = Outcome::kDone;
    int32_t value = 0;
    // kArray results view VM-owned array storage: zero-allocation on the hot
    // path.  Valid until the next Dispatch on (or mutation of) this VM; copy
    // out to keep it longer.
    std::span<const uint8_t> array;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    Status trap;  // set when outcome == kTrap
  };

  // The image is pre-verified and pre-decoded; construction cannot fail.
  explicit Vm(std::shared_ptr<const DecodedImage> image);

  // Executes the handler for `event` (if any) over the decoded stream.
  // Arguments beyond the handler's declared count (or the 4 local slots) are
  // ignored; missing ones read as zero.  `host` may be null (signals are
  // dropped).
  ExecResult Dispatch(const Event& event, VmHost* host);

  // Truncates a 32-bit value to a declared storage type (JVM-style).
  static int32_t TruncateTo(DslType type, int32_t v);

  // --- introspection (tests, debugger-style tooling) -----------------------
  int32_t global(size_t slot) const { return slot < globals_.size() ? globals_[slot] : 0; }
  void set_global(size_t slot, int32_t v);
  std::span<const uint8_t> array(size_t index) const;
  const DriverImage& image() const { return decoded_->image(); }
  const DecodedImage& decoded() const { return *decoded_; }
  uint64_t total_instructions() const { return total_instructions_; }
  uint64_t total_cycles() const { return total_cycles_; }

 private:
  std::shared_ptr<const DecodedImage> decoded_;
  std::vector<int32_t> globals_;
  std::vector<std::vector<uint8_t>> arrays_;
  uint64_t total_instructions_ = 0;
  uint64_t total_cycles_ = 0;
};

}  // namespace micropnp

#endif  // SRC_RT_VM_H_

// The seed interpreter, kept as a test oracle.
//
// ReferenceVm walks the raw bytecode of a DriverImage the way the seed VM
// did: it re-validates the opcode, the operand bytes, the code bounds, every
// static slot and the operand-stack depth on each step, and re-decodes
// operands as it goes.  It trusts nothing a verifier proved, which is what
// makes it a useful reference for the production Vm (src/rt/vm.h): the
// differential tests hold Vm::Dispatch to bit-identical outcomes, values and
// instruction/cycle accounting against it.
//
// It owns its own globals and arrays and shares no execution state with Vm.

#ifndef TESTS_ORACLES_REFERENCE_VM_H_
#define TESTS_ORACLES_REFERENCE_VM_H_

#include <cstdint>
#include <vector>

#include "src/dsl/driver_image.h"
#include "src/rt/event.h"
#include "src/rt/vm.h"

namespace micropnp {

class ReferenceVm {
 public:
  explicit ReferenceVm(DriverImage image);

  // Same contract as Vm::Dispatch (argument binding, traps, accounting).
  Vm::ExecResult Dispatch(const Event& event, VmHost* host);

  int32_t global(size_t slot) const { return slot < globals_.size() ? globals_[slot] : 0; }
  uint64_t total_instructions() const { return total_instructions_; }
  uint64_t total_cycles() const { return total_cycles_; }

 private:
  DriverImage image_;
  std::vector<int32_t> globals_;
  std::vector<std::vector<uint8_t>> arrays_;
  uint64_t total_instructions_ = 0;
  uint64_t total_cycles_ = 0;
};

}  // namespace micropnp

#endif  // TESTS_ORACLES_REFERENCE_VM_H_

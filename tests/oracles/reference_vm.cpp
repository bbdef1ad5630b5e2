#include "tests/oracles/reference_vm.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "src/dsl/bytecode.h"
#include "src/dsl/native_interface.h"

namespace micropnp {

ReferenceVm::ReferenceVm(DriverImage image) : image_(std::move(image)) {
  globals_.assign(image_.scalar_types.size(), 0);
  for (uint8_t size : image_.array_sizes) {
    arrays_.emplace_back(size, 0);
  }
}

// Preserved from the seed verbatim modulo the VmHost interface and the
// handler-argument clamp fix: walks raw bytecode, re-validating opcodes,
// bounds and stack depth on every step.

Vm::ExecResult ReferenceVm::Dispatch(const Event& event, VmHost* host) {
  const DriverImage& image = image_;
  Vm::ExecResult result;
  const HandlerEntry* handler = image.FindHandler(event.id);
  if (handler == nullptr) {
    result.outcome = Vm::Outcome::kNoHandler;
    return result;
  }

  // Handler parameters: declared count, clamped to the 4 local slots and to
  // the arguments actually present on the event; missing ones read as zero.
  std::array<int32_t, 4> locals{};
  const size_t bound = std::min({static_cast<size_t>(handler->argc), locals.size(),
                                 static_cast<size_t>(event.argc), event.args.size()});
  for (size_t i = 0; i < bound; ++i) {
    locals[i] = event.args[i];
  }
  std::array<int32_t, kVmStackDepth> stack;
  size_t sp = 0;  // next free slot
  size_t pc = handler->offset;
  const std::vector<uint8_t>& code = image.code;

  auto trap = [&](const std::string& what) {
    result.outcome = Vm::Outcome::kTrap;
    result.trap = InternalError(what + " at pc " + std::to_string(pc));
  };
  auto push = [&](int32_t v) -> bool {
    if (sp >= kVmStackDepth) {
      trap("stack overflow");
      return false;
    }
    stack[sp++] = v;
    return true;
  };
  auto pop = [&](int32_t* out) -> bool {
    if (sp == 0) {
      trap("stack underflow");
      return false;
    }
    *out = stack[--sp];
    return true;
  };

  while (result.outcome == Vm::Outcome::kDone) {
    if (pc >= code.size()) {
      trap("pc out of range");
      break;
    }
    const uint8_t raw_op = code[pc];
    if (!OpIsValid(raw_op)) {
      trap("invalid opcode");
      break;
    }
    const Op op = static_cast<Op>(raw_op);
    const int operand_bytes = OpOperandBytes(op);
    if (pc + 1 + static_cast<size_t>(operand_bytes) > code.size()) {
      trap("truncated instruction");
      break;
    }
    ++result.instructions;
    result.cycles += OpCycleCost(op);
    if (result.instructions > kVmWatchdogInstructions) {
      trap("watchdog: handler exceeded instruction budget");
      break;
    }

    // Operand readers.
    auto operand_u8 = [&]() -> uint8_t { return code[pc + 1]; };
    auto operand_i16 = [&]() -> int16_t {
      return static_cast<int16_t>((code[pc + 1] << 8) | code[pc + 2]);
    };
    size_t next_pc = pc + 1 + static_cast<size_t>(operand_bytes);

    int32_t a = 0, b = 0;
    switch (op) {
      case Op::kNop:
        break;
      case Op::kPush0:
        if (!push(0)) continue;
        break;
      case Op::kPush1:
        if (!push(1)) continue;
        break;
      case Op::kPushI8:
        if (!push(static_cast<int8_t>(operand_u8()))) continue;
        break;
      case Op::kPushI16:
        if (!push(operand_i16())) continue;
        break;
      case Op::kPushI32: {
        const int32_t v = static_cast<int32_t>((static_cast<uint32_t>(code[pc + 1]) << 24) |
                                               (static_cast<uint32_t>(code[pc + 2]) << 16) |
                                               (static_cast<uint32_t>(code[pc + 3]) << 8) |
                                               code[pc + 4]);
        if (!push(v)) continue;
        break;
      }
      case Op::kDup:
        if (sp == 0) {
          trap("stack underflow");
          continue;
        }
        if (!push(stack[sp - 1])) continue;
        break;
      case Op::kPop:
        if (!pop(&a)) continue;
        break;
      case Op::kLoadG: {
        const uint8_t slot = operand_u8();
        if (slot >= globals_.size()) {
          trap("global slot out of range");
          continue;
        }
        if (!push(globals_[slot])) continue;
        break;
      }
      case Op::kStoreG: {
        const uint8_t slot = operand_u8();
        if (slot >= globals_.size()) {
          trap("global slot out of range");
          continue;
        }
        if (!pop(&a)) continue;
        globals_[slot] = Vm::TruncateTo(image.scalar_types[slot], a);
        break;
      }
      case Op::kLoadL: {
        const uint8_t index = operand_u8();
        if (index >= locals.size()) {
          trap("local index out of range");
          continue;
        }
        if (!push(locals[index])) continue;
        break;
      }
      case Op::kLoadA: {
        const uint8_t arr = operand_u8();
        if (arr >= arrays_.size()) {
          trap("array index out of range");
          continue;
        }
        if (!pop(&a)) continue;
        if (a < 0 || static_cast<size_t>(a) >= arrays_[arr].size()) {
          trap("array subscript out of bounds");
          continue;
        }
        if (!push(arrays_[arr][static_cast<size_t>(a)])) continue;
        break;
      }
      case Op::kStoreA: {
        const uint8_t arr = operand_u8();
        if (arr >= arrays_.size()) {
          trap("array index out of range");
          continue;
        }
        if (!pop(&b)) continue;  // value
        if (!pop(&a)) continue;  // index
        if (a < 0 || static_cast<size_t>(a) >= arrays_[arr].size()) {
          trap("array subscript out of bounds");
          continue;
        }
        arrays_[arr][static_cast<size_t>(a)] = static_cast<uint8_t>(b & 0xff);
        break;
      }
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kShl:
      case Op::kShr:
      case Op::kBitAnd:
      case Op::kBitOr:
      case Op::kBitXor:
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe: {
        if (!pop(&b) || !pop(&a)) continue;
        int32_t v = 0;
        bool ok = true;
        switch (op) {
          case Op::kAdd:
            v = static_cast<int32_t>(static_cast<uint32_t>(a) + static_cast<uint32_t>(b));
            break;
          case Op::kSub:
            v = static_cast<int32_t>(static_cast<uint32_t>(a) - static_cast<uint32_t>(b));
            break;
          case Op::kMul:
            v = static_cast<int32_t>(static_cast<uint32_t>(a) * static_cast<uint32_t>(b));
            break;
          case Op::kDiv:
            if (b == 0) {
              trap("division by zero");
              ok = false;
              break;
            }
            if (a == INT32_MIN && b == -1) {
              v = INT32_MIN;  // wraps, matching AVR soft-division
            } else {
              v = a / b;
            }
            break;
          case Op::kMod:
            if (b == 0) {
              trap("division by zero");
              ok = false;
              break;
            }
            if (a == INT32_MIN && b == -1) {
              v = 0;
            } else {
              v = a % b;
            }
            break;
          case Op::kShl:
            v = static_cast<int32_t>(static_cast<uint32_t>(a) << (b & 31));
            break;
          case Op::kShr:
            v = a >> (b & 31);  // arithmetic
            break;
          case Op::kBitAnd:
            v = a & b;
            break;
          case Op::kBitOr:
            v = a | b;
            break;
          case Op::kBitXor:
            v = a ^ b;
            break;
          case Op::kEq:
            v = (a == b);
            break;
          case Op::kNe:
            v = (a != b);
            break;
          case Op::kLt:
            v = (a < b);
            break;
          case Op::kLe:
            v = (a <= b);
            break;
          case Op::kGt:
            v = (a > b);
            break;
          case Op::kGe:
            v = (a >= b);
            break;
          default:
            break;
        }
        if (!ok) {
          continue;
        }
        if (!push(v)) continue;
        break;
      }
      case Op::kNeg:
        if (!pop(&a)) continue;
        if (!push(static_cast<int32_t>(0u - static_cast<uint32_t>(a)))) continue;
        break;
      case Op::kBitNot:
        if (!pop(&a)) continue;
        if (!push(~a)) continue;
        break;
      case Op::kLogicalNot:
        if (!pop(&a)) continue;
        if (!push(a == 0 ? 1 : 0)) continue;
        break;
      case Op::kJmp:
        next_pc = static_cast<size_t>(static_cast<ptrdiff_t>(next_pc) + operand_i16());
        break;
      case Op::kJz:
        if (!pop(&a)) continue;
        if (a == 0) {
          next_pc = static_cast<size_t>(static_cast<ptrdiff_t>(next_pc) + operand_i16());
        }
        break;
      case Op::kJnz:
        if (!pop(&a)) continue;
        if (a != 0) {
          next_pc = static_cast<size_t>(static_cast<ptrdiff_t>(next_pc) + operand_i16());
        }
        break;
      case Op::kSignalSelf: {
        const EventId target = operand_u8();
        const HandlerEntry* target_handler = image.FindHandler(target);
        if (target_handler == nullptr) {
          trap("signal to unhandled event");
          continue;
        }
        Event e;
        e.id = target;
        e.argc = target_handler->argc;
        // Arguments were pushed left-to-right; pop them back into order.
        for (int i = static_cast<int>(e.argc) - 1; i >= 0; --i) {
          if (!pop(&e.args[static_cast<size_t>(i)])) break;
        }
        if (result.outcome != Vm::Outcome::kDone) {
          continue;  // popped into a trap
        }
        if (host != nullptr) {
          host->OnSelfSignal(e);
        }
        break;
      }
      case Op::kSignalLib: {
        const LibraryId lib = code[pc + 1];
        const LibraryFunctionId fn = code[pc + 2];
        const NativeFunctionDesc* desc = FindNativeFunction(lib, fn);
        if (desc == nullptr) {
          trap("signal to unknown native function");
          continue;
        }
        std::array<int32_t, 4> args{};
        for (int i = static_cast<int>(desc->arg_count) - 1; i >= 0; --i) {
          if (!pop(&args[static_cast<size_t>(i)])) break;
        }
        if (result.outcome != Vm::Outcome::kDone) {
          continue;
        }
        if (host != nullptr) {
          host->OnLibSignal(lib, fn, std::span<const int32_t>(args.data(), desc->arg_count));
        }
        break;
      }
      case Op::kRet:
        total_instructions_ += result.instructions;
        total_cycles_ += result.cycles;
        return result;
      case Op::kRetVal:
        if (!pop(&a)) continue;
        result.outcome = Vm::Outcome::kValue;
        result.value = a;
        total_instructions_ += result.instructions;
        total_cycles_ += result.cycles;
        return result;
      case Op::kRetArr: {
        const uint8_t arr = operand_u8();
        if (arr >= arrays_.size()) {
          trap("array index out of range");
          continue;
        }
        result.outcome = Vm::Outcome::kArray;
        result.array = std::span<const uint8_t>(arrays_[arr].data(), arrays_[arr].size());
        total_instructions_ += result.instructions;
        total_cycles_ += result.cycles;
        return result;
      }
    }
    pc = next_pc;
  }

  total_instructions_ += result.instructions;
  total_cycles_ += result.cycles;
  return result;
}

}  // namespace micropnp

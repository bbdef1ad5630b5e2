#include "src/rt/vm.h"

#include <algorithm>
#include <array>

namespace micropnp {

Vm::Vm(std::shared_ptr<const DecodedImage> image) : decoded_(std::move(image)) {
  const DriverImage& img = decoded_->image();
  globals_.assign(img.scalar_types.size(), 0);
  arrays_.reserve(img.array_sizes.size());
  for (uint8_t size : img.array_sizes) {
    arrays_.emplace_back(size, 0);
  }
}

void Vm::set_global(size_t slot, int32_t v) {
  if (slot < globals_.size()) {
    globals_[slot] = TruncateTo(decoded_->image().scalar_types[slot], v);
  }
}

std::span<const uint8_t> Vm::array(size_t index) const {
  if (index >= arrays_.size()) {
    return {};
  }
  return std::span<const uint8_t>(arrays_[index].data(), arrays_[index].size());
}

int32_t Vm::TruncateTo(DslType type, int32_t v) {
  switch (type) {
    case DslType::kUint8:
    case DslType::kChar:
      return static_cast<int32_t>(static_cast<uint32_t>(v) & 0xffu);
    case DslType::kUint16:
      return static_cast<int32_t>(static_cast<uint32_t>(v) & 0xffffu);
    case DslType::kUint32:
    case DslType::kInt32:
      return v;
    case DslType::kInt8:
      return static_cast<int32_t>(static_cast<int8_t>(static_cast<uint32_t>(v) & 0xffu));
    case DslType::kInt16:
      return static_cast<int32_t>(static_cast<int16_t>(static_cast<uint32_t>(v) & 0xffffu));
    case DslType::kBool:
      return v != 0 ? 1 : 0;
  }
  return v;
}

// ---- dispatch ---------------------------------------------------------------
//
// The verifier proved: every instruction is valid and complete, every branch
// lands on an instruction inside the stream, execution cannot run off the
// end, static global/array/local indices are in range, and no path can
// overflow or underflow the operand stack.  None of that is re-checked here.

Vm::ExecResult Vm::Dispatch(const Event& event, VmHost* host) {
  ExecResult result;
  const DecodedHandler* handler = decoded_->FindHandler(event.id);
  if (handler == nullptr) {
    result.outcome = Outcome::kNoHandler;
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
  const DecodedInsn* const insns = decoded_->code().data();
  size_t ip = handler->entry;

  auto trap = [&](const DecodedInsn& insn, const char* what) {
    result.outcome = Outcome::kTrap;
    result.trap = InternalError(std::string(what) + " at pc " + std::to_string(insn.pc));
  };

  for (;;) {
    const DecodedInsn& insn = insns[ip];
    ++result.instructions;
    result.cycles += insn.cycles;
    if (result.instructions > kVmWatchdogInstructions) {
      trap(insn, "watchdog: handler exceeded instruction budget");
      break;
    }

    size_t next_ip = ip + 1;
    int32_t a = 0, b = 0;
    switch (insn.op) {
      case Op::kNop:
        break;
      case Op::kPush0:
        stack[sp++] = 0;
        break;
      case Op::kPush1:
        stack[sp++] = 1;
        break;
      case Op::kPushI8:
      case Op::kPushI16:
      case Op::kPushI32:
        stack[sp++] = insn.imm;
        break;
      case Op::kDup:
        stack[sp] = stack[sp - 1];
        ++sp;
        break;
      case Op::kPop:
        --sp;
        break;
      case Op::kLoadG:
        stack[sp++] = globals_[insn.a];
        break;
      case Op::kStoreG:
        globals_[insn.a] = TruncateTo(static_cast<DslType>(insn.b), stack[--sp]);
        break;
      case Op::kLoadL:
        stack[sp++] = locals[insn.a];
        break;
      case Op::kLoadA: {
        a = stack[--sp];
        const std::vector<uint8_t>& arr = arrays_[insn.a];
        if (a < 0 || static_cast<size_t>(a) >= arr.size()) {
          trap(insn, "array subscript out of bounds");
          break;
        }
        stack[sp++] = arr[static_cast<size_t>(a)];
        break;
      }
      case Op::kStoreA: {
        b = stack[--sp];  // value
        a = stack[--sp];  // index
        std::vector<uint8_t>& arr = arrays_[insn.a];
        if (a < 0 || static_cast<size_t>(a) >= arr.size()) {
          trap(insn, "array subscript out of bounds");
          break;
        }
        arr[static_cast<size_t>(a)] = static_cast<uint8_t>(b & 0xff);
        break;
      }
      case Op::kAdd:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = static_cast<int32_t>(static_cast<uint32_t>(a) + static_cast<uint32_t>(b));
        break;
      case Op::kSub:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = static_cast<int32_t>(static_cast<uint32_t>(a) - static_cast<uint32_t>(b));
        break;
      case Op::kMul:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = static_cast<int32_t>(static_cast<uint32_t>(a) * static_cast<uint32_t>(b));
        break;
      case Op::kDiv:
        b = stack[--sp];
        a = stack[--sp];
        if (b == 0) {
          trap(insn, "division by zero");
          break;
        }
        stack[sp++] = (a == INT32_MIN && b == -1) ? INT32_MIN : a / b;
        break;
      case Op::kMod:
        b = stack[--sp];
        a = stack[--sp];
        if (b == 0) {
          trap(insn, "division by zero");
          break;
        }
        stack[sp++] = (a == INT32_MIN && b == -1) ? 0 : a % b;
        break;
      case Op::kNeg:
        stack[sp - 1] = static_cast<int32_t>(0u - static_cast<uint32_t>(stack[sp - 1]));
        break;
      case Op::kShl:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = static_cast<int32_t>(static_cast<uint32_t>(a) << (b & 31));
        break;
      case Op::kShr:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = a >> (b & 31);  // arithmetic
        break;
      case Op::kBitAnd:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = a & b;
        break;
      case Op::kBitOr:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = a | b;
        break;
      case Op::kBitXor:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = a ^ b;
        break;
      case Op::kBitNot:
        stack[sp - 1] = ~stack[sp - 1];
        break;
      case Op::kLogicalNot:
        stack[sp - 1] = stack[sp - 1] == 0 ? 1 : 0;
        break;
      case Op::kEq:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = (a == b);
        break;
      case Op::kNe:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = (a != b);
        break;
      case Op::kLt:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = (a < b);
        break;
      case Op::kLe:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = (a <= b);
        break;
      case Op::kGt:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = (a > b);
        break;
      case Op::kGe:
        b = stack[--sp];
        a = stack[--sp];
        stack[sp++] = (a >= b);
        break;
      case Op::kJmp:
        next_ip = static_cast<size_t>(insn.imm);
        break;
      case Op::kJz:
        if (stack[--sp] == 0) {
          next_ip = static_cast<size_t>(insn.imm);
        }
        break;
      case Op::kJnz:
        if (stack[--sp] != 0) {
          next_ip = static_cast<size_t>(insn.imm);
        }
        break;
      case Op::kSignalSelf: {
        Event e;
        e.id = insn.a;
        e.argc = insn.c;
        // Arguments were pushed left-to-right; pop them back into order.
        for (int i = static_cast<int>(insn.c) - 1; i >= 0; --i) {
          e.args[static_cast<size_t>(i)] = stack[--sp];
        }
        if (host != nullptr) {
          host->OnSelfSignal(e);
        }
        break;
      }
      case Op::kSignalLib: {
        std::array<int32_t, 4> args{};
        for (int i = static_cast<int>(insn.c) - 1; i >= 0; --i) {
          args[static_cast<size_t>(i)] = stack[--sp];
        }
        if (host != nullptr) {
          host->OnLibSignal(insn.a, insn.b, std::span<const int32_t>(args.data(), insn.c));
        }
        break;
      }
      case Op::kRet:
        total_instructions_ += result.instructions;
        total_cycles_ += result.cycles;
        return result;
      case Op::kRetVal:
        result.outcome = Outcome::kValue;
        result.value = stack[--sp];
        total_instructions_ += result.instructions;
        total_cycles_ += result.cycles;
        return result;
      case Op::kRetArr: {
        result.outcome = Outcome::kArray;
        const std::vector<uint8_t>& arr = arrays_[insn.a];
        result.array = std::span<const uint8_t>(arr.data(), arr.size());
        total_instructions_ += result.instructions;
        total_cycles_ += result.cycles;
        return result;
      }
    }
    if (result.outcome != Outcome::kDone) {
      break;  // trapped
    }
    ip = next_ip;
  }

  total_instructions_ += result.instructions;
  total_cycles_ += result.cycles;
  return result;
}

}  // namespace micropnp

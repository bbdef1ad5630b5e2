#include "src/rt/decoded_image.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>

#include "src/dsl/native_interface.h"
#include "src/rt/abstract_interp.h"

namespace micropnp {
namespace {

Status VerifyError(const std::string& what, size_t pc) {
  return CorruptError(what + " at pc " + std::to_string(pc));
}

}  // namespace

Result<DecodedImage> DecodedImage::Decode(const DriverImage& image,
                                          std::optional<uint32_t> image_crc,
                                          const DecodeOptions& options) {
  DecodedImage out;
  out.image_ = image;
  out.crc_ = image_crc.has_value() ? *image_crc : image.ImageCrc();
  const std::vector<uint8_t>& code = image.code;
  // DecodedInsn.pc and the wire format are both 16-bit; an in-memory image
  // larger than that could otherwise alias offsets during branch resolution.
  if (code.size() > UINT16_MAX) {
    return CorruptError("code larger than the 64 KiB image format allows");
  }

  // ---- pass 1: linear decode ------------------------------------------------
  // Every byte of `code` must belong to exactly one complete instruction;
  // `index_at[pc]` maps instruction-start offsets to decoded indices.
  std::vector<int32_t> index_at(code.size(), -1);
  size_t pc = 0;
  while (pc < code.size()) {
    const uint8_t raw = code[pc];
    if (!OpIsValid(raw)) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "invalid opcode 0x%02x", raw);
      return VerifyError(hex, pc);
    }
    const Op op = static_cast<Op>(raw);
    const size_t operand_bytes = static_cast<size_t>(OpOperandBytes(op));
    if (pc + 1 + operand_bytes > code.size()) {
      return VerifyError("truncated instruction", pc);
    }

    DecodedInsn insn;
    insn.op = op;
    insn.pc = static_cast<uint16_t>(pc);
    insn.cycles = OpCycleCost(op);
    switch (op) {
      case Op::kPushI8:
        insn.imm = static_cast<int8_t>(code[pc + 1]);
        break;
      case Op::kPushI16:
        insn.imm = static_cast<int16_t>((code[pc + 1] << 8) | code[pc + 2]);
        break;
      case Op::kPushI32:
        insn.imm = static_cast<int32_t>((static_cast<uint32_t>(code[pc + 1]) << 24) |
                                        (static_cast<uint32_t>(code[pc + 2]) << 16) |
                                        (static_cast<uint32_t>(code[pc + 3]) << 8) |
                                        code[pc + 4]);
        break;
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz:
        // Relative displacement; resolved to a decoded index in pass 2.
        insn.imm = static_cast<int16_t>((code[pc + 1] << 8) | code[pc + 2]);
        break;
      case Op::kSignalLib:
        insn.a = code[pc + 1];
        insn.b = code[pc + 2];
        break;
      case Op::kLoadG:
      case Op::kStoreG:
      case Op::kLoadL:
      case Op::kLoadA:
      case Op::kStoreA:
      case Op::kRetArr:
      case Op::kSignalSelf:
        insn.a = code[pc + 1];
        break;
      default:
        break;
    }
    index_at[pc] = static_cast<int32_t>(out.insns_.size());
    out.insns_.push_back(insn);
    pc += 1 + operand_bytes;
  }

  // ---- pass 2: resolve + verify every static operand ------------------------
  for (size_t i = 0; i < out.insns_.size(); ++i) {
    DecodedInsn& insn = out.insns_[i];
    switch (insn.op) {
      case Op::kJmp:
      case Op::kJz:
      case Op::kJnz: {
        const size_t operand_end = static_cast<size_t>(insn.pc) + 3;
        const ptrdiff_t target =
            static_cast<ptrdiff_t>(operand_end) + static_cast<ptrdiff_t>(insn.imm);
        if (target < 0 || static_cast<size_t>(target) >= code.size()) {
          return VerifyError("branch target out of code", insn.pc);
        }
        const int32_t target_index = index_at[static_cast<size_t>(target)];
        if (target_index < 0) {
          return VerifyError("branch target off instruction boundary", insn.pc);
        }
        insn.imm = target_index;
        break;
      }
      case Op::kLoadG:
      case Op::kStoreG:
        if (insn.a >= image.scalar_types.size()) {
          return VerifyError("global slot out of range", insn.pc);
        }
        // store.g truncates to the declared type; resolve it here so the
        // interpreter skips the slot-type lookup.
        insn.b = static_cast<uint8_t>(image.scalar_types[insn.a]);
        break;
      case Op::kLoadL:
        if (insn.a >= kMaxHandlerArgs) {
          return VerifyError("local index out of range", insn.pc);
        }
        break;
      case Op::kLoadA:
      case Op::kStoreA:
      case Op::kRetArr:
        if (insn.a >= image.array_sizes.size()) {
          return VerifyError("array index out of range", insn.pc);
        }
        break;
      case Op::kSignalSelf: {
        const HandlerEntry* target = image.FindHandler(insn.a);
        if (target == nullptr) {
          return VerifyError("signal to unhandled event", insn.pc);
        }
        if (target->argc > kMaxHandlerArgs) {
          return VerifyError("signal target takes too many arguments", insn.pc);
        }
        insn.c = target->argc;
        break;
      }
      case Op::kSignalLib: {
        const NativeFunctionDesc* desc = FindNativeFunction(insn.a, insn.b);
        if (desc == nullptr) {
          return VerifyError("signal to unknown native function", insn.pc);
        }
        if (std::find(image.imports.begin(), image.imports.end(), insn.a) ==
            image.imports.end()) {
          return VerifyError("signal to library not in imports", insn.pc);
        }
        if (desc->arg_count > kMaxHandlerArgs) {
          return VerifyError("signal target takes too many arguments", insn.pc);
        }
        insn.c = desc->arg_count;
        break;
      }
      default:
        break;
    }
    // The decoded interpreter advances by index with no bounds check, so the
    // last instruction must not fall through past the end of the stream.
    const bool falls_through =
        insn.op != Op::kRet && insn.op != Op::kRetVal && insn.op != Op::kRetArr &&
        insn.op != Op::kJmp;
    if (falls_through && i + 1 == out.insns_.size()) {
      return VerifyError("execution falls off the end of code", insn.pc);
    }
  }

  // ---- handlers -------------------------------------------------------------
  for (const HandlerEntry& h : image.handlers) {
    if (h.argc > kMaxHandlerArgs) {
      return CorruptError("handler for event " + std::to_string(h.event) + " declares " +
                          std::to_string(h.argc) + " arguments (max " +
                          std::to_string(kMaxHandlerArgs) + ")");
    }
    if (h.offset >= code.size()) {
      return CorruptError("handler offset out of range for event " + std::to_string(h.event));
    }
    if (index_at[h.offset] < 0) {
      return VerifyError("handler entry off instruction boundary", h.offset);
    }
    DecodedHandler decoded;
    decoded.event = h.event;
    decoded.argc = h.argc;
    decoded.entry = static_cast<uint32_t>(index_at[h.offset]);
    // First handler wins on duplicates, matching the seed's linear scan.
    if (out.handler_table_[h.event] < 0) {
      out.handler_table_[h.event] = static_cast<int16_t>(out.handlers_.size());
      out.handlers_.push_back(decoded);
    }
  }

  // ---- worst-case stack-depth analysis --------------------------------------
  // Abstract interpretation over entry-depth intervals [lo, hi].  The
  // interpreter runs with a fixed kVmStackDepth-slot stack and no per-push
  // bounds checks, so any path that could overflow or underflow is rejected
  // here.  Intervals only widen and are bounded, so the fixpoint is cheap.
  constexpr int kUnvisited = -1;
  struct Interval {
    int lo = kUnvisited;
    int hi = kUnvisited;
  };
  std::vector<Interval> entry(out.insns_.size());
  std::vector<int> exit_hi(out.insns_.size(), 0);  // post-instruction hi, for max_stack
  std::deque<size_t> worklist;

  auto merge = [&](size_t index, int lo, int hi) {
    Interval& in = entry[index];
    if (in.lo == kUnvisited) {
      in = {lo, hi};
      worklist.push_back(index);
    } else if (lo < in.lo || hi > in.hi) {
      in.lo = std::min(in.lo, lo);
      in.hi = std::max(in.hi, hi);
      worklist.push_back(index);
    }
  };

  for (const DecodedHandler& h : out.handlers_) {
    merge(h.entry, 0, 0);  // handlers start with an empty operand stack
  }

  while (!worklist.empty()) {
    const size_t i = worklist.front();
    worklist.pop_front();
    const DecodedInsn& insn = out.insns_[i];
    const Interval in = entry[i];

    int pops = 0;
    int pushes = 0;
    if (!OpStackEffect(insn.op, &pops, &pushes)) {
      pops = insn.c;  // signal ops: resolved per-site argument count
    }
    if (in.lo < pops) {
      return VerifyError("static stack underflow", insn.pc);
    }
    const int out_lo = in.lo - pops + pushes;
    const int out_hi = in.hi - pops + pushes;
    if (out_hi > static_cast<int>(kVmStackDepth)) {
      return VerifyError("static stack overflow", insn.pc);
    }
    exit_hi[i] = out_hi;

    ForEachSuccessor(insn, i, [&](size_t successor) { merge(successor, out_lo, out_hi); });
  }

  // Per-handler worst case: max post-instruction depth over the handler's
  // reachable instructions (intervals are final here, so plain reachability).
  for (DecodedHandler& h : out.handlers_) {
    std::vector<bool> seen(out.insns_.size(), false);
    std::deque<size_t> frontier = {h.entry};
    uint32_t deepest = 0;
    while (!frontier.empty()) {
      const size_t i = frontier.front();
      frontier.pop_front();
      if (seen[i]) {
        continue;
      }
      seen[i] = true;
      deepest = std::max(deepest, static_cast<uint32_t>(exit_hi[i]));
      ForEachSuccessor(out.insns_[i], i,
                       [&](size_t successor) { frontier.push_back(successor); });
    }
    h.max_stack = deepest;
  }

  // ---- abstract interpretation ----------------------------------------------
  // Value analysis over the structurally-verified stream (abstract_interp.h):
  // proves trap sites safe or unsafe, bounds each handler's execution, and
  // flags unreachable code / dead handlers for updl_lint.
  auto analysis = std::make_shared<ImageAnalysis>(
      AnalyzeImage(image, out.insns_, out.handlers_));
  if (options.reject_unsafe) {
    if (const Finding* error = analysis->FirstError()) {
      return CorruptError("unsafe driver image: " + error->message + " [" +
                          FindingKindName(error->kind) + " at pc " +
                          std::to_string(error->pc) + "]");
    }
  }
  out.analysis_ = std::move(analysis);

  return out;
}

Result<std::shared_ptr<const DecodedImage>> DecodedImage::DecodeShared(
    const DriverImage& image, std::optional<uint32_t> image_crc) {
  Result<DecodedImage> decoded = Decode(image, image_crc);
  if (!decoded.ok()) {
    return decoded.status();
  }
  return std::shared_ptr<const DecodedImage>(new DecodedImage(std::move(*decoded)));
}

const ImageAnalysis& DecodedImage::analysis() const { return *analysis_; }

uint32_t DecodedImage::max_stack_depth() const {
  uint32_t deepest = 0;
  for (const DecodedHandler& h : handlers_) {
    deepest = std::max(deepest, h.max_stack);
  }
  return deepest;
}

}  // namespace micropnp

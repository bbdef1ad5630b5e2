// Load-time verified, pre-decoded driver images.
//
// The seed interpreter re-validated opcodes, re-checked code bounds and
// re-decoded variable-width operands on every instruction.  An embedded
// runtime does that work once, at driver-install time: the image is verified
// (valid opcodes, complete operands, branch targets on instruction
// boundaries, static global/array/local indices in range, worst-case operand
// stack depth within the VM's fixed stack) and lowered into a fixed-width
// instruction stream with resolved jump targets, pre-looked-up signal
// descriptors and per-op cycle costs.  `Vm::Dispatch` then runs straight
// over the decoded stream with no per-step validity or bounds checks; only
// faults that depend on runtime state remain as traps (division by zero,
// dynamic array subscripts, the watchdog).
//
// A DecodedImage is immutable after Decode and carries no per-driver mutable
// state, so one decoded image is safely shared by every VM instance for the
// same device type (see DriverManager's CRC-keyed decode cache).

#ifndef SRC_RT_DECODED_IMAGE_H_
#define SRC_RT_DECODED_IMAGE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/dsl/bytecode.h"
#include "src/dsl/driver_image.h"

namespace micropnp {

struct ImageAnalysis;  // src/rt/abstract_interp.h

// Dimensioning of the embedded VM (mirrored by the footprint model).  The
// verifier proves every handler stays within this depth, which is what lets
// the interpreter push and pop with no per-step bounds checks.
inline constexpr size_t kVmStackDepth = 32;

// Events carry at most four arguments; handlers get the same four local
// slots.  The verifier rejects images that declare more.
inline constexpr size_t kMaxHandlerArgs = 4;

// One pre-decoded instruction.  Fixed width: the interpreter advances by
// index, never by operand size.
struct DecodedInsn {
  int32_t imm = 0;      // immediate constant; branch target as a decoded index
  uint32_t cycles = 0;  // modeled AVR cycle cost, resolved at decode time
  uint16_t pc = 0;      // original bytecode offset (trap messages, tooling)
  Op op = Op::kNop;
  uint8_t a = 0;  // first u8 operand: slot / array / local / event / lib id
  uint8_t b = 0;  // second u8 operand: lib fn id; storage type for store.g
  uint8_t c = 0;  // resolved argument count for signal ops
};

// Control-flow successors of the decoded instruction at `index` (the
// verifier's stack-depth fixpoint and reachability walks, and the abstract
// interpreter's structural fallback).
template <typename Fn>
void ForEachSuccessor(const DecodedInsn& insn, size_t index, Fn&& fn) {
  switch (insn.op) {
    case Op::kRet:
    case Op::kRetVal:
    case Op::kRetArr:
      break;  // terminal
    case Op::kJmp:
      fn(static_cast<size_t>(insn.imm));
      break;
    case Op::kJz:
    case Op::kJnz:
      fn(static_cast<size_t>(insn.imm));
      fn(index + 1);
      break;
    default:
      fn(index + 1);
      break;
  }
}

struct DecodedHandler {
  EventId event = 0;
  uint8_t argc = 0;
  uint32_t entry = 0;      // index into code()
  uint32_t max_stack = 0;  // worst-case operand stack depth (static analysis)
};

// Knobs for the abstract-interpretation stage of Decode.  The default is
// what the runtime wants: proven-unsafe images rejected at install time.
// updl_lint turns `reject_unsafe` off to report every finding instead of
// stopping at the first.
struct DecodeOptions {
  bool reject_unsafe = true;
};

class DecodedImage {
 public:
  // Verifies `image` and lowers it into the decoded form.  Every statically
  // detectable fault — invalid opcode, truncated instruction, branch off an
  // instruction boundary or out of code, out-of-range global/array/local
  // slot, signal to an unhandled event or unknown native function, handler
  // off an instruction boundary or with too many parameters, execution
  // falling off the end of the code, and operand stack overflow/underflow —
  // is rejected here with a Status instead of trapping mid-handler.
  // `image_crc` lets a caller that already computed DriverImage::ImageCrc()
  // (e.g. for a cache probe) avoid a second serialize+CRC pass.
  static Result<DecodedImage> Decode(const DriverImage& image,
                                     std::optional<uint32_t> image_crc = std::nullopt,
                                     const DecodeOptions& options = {});

  // Decode into shared ownership (the form DriverManager caches and every
  // DriverHost/Vm holds).
  static Result<std::shared_ptr<const DecodedImage>> DecodeShared(
      const DriverImage& image, std::optional<uint32_t> image_crc = std::nullopt);

  const DriverImage& image() const { return image_; }
  std::span<const DecodedInsn> code() const { return insns_; }
  std::span<const DecodedHandler> handlers() const { return handlers_; }

  // O(1) handler lookup: a dense 256-entry table indexed by event id
  // replaces the seed's linear scan.
  const DecodedHandler* FindHandler(EventId event) const {
    const int16_t index = handler_table_[event];
    return index < 0 ? nullptr : &handlers_[static_cast<size_t>(index)];
  }

  // Event ids this image handles, in handler-table order.  This is the
  // runtime's model-metadata export: the Thing condenses it into the
  // kModelFacets TLV of its advertisements (src/model/device_model.h).
  std::vector<EventId> HandledEvents() const {
    std::vector<EventId> events;
    events.reserve(handlers_.size());
    for (const DecodedHandler& handler : handlers_) {
      events.push_back(handler.event);
    }
    return events;
  }

  // CRC-32 of the serialized image — the decode-cache key: two installs of
  // byte-identical images share one DecodedImage.
  uint32_t crc() const { return crc_; }

  // Worst-case operand stack depth across all handlers (<= kVmStackDepth by
  // construction; the verifier rejected anything deeper).
  uint32_t max_stack_depth() const;

  // The abstract-interpretation result Decode ran over the stream: every
  // finding (errors, warnings, notes), per-handler WCET and the trap-site
  // census.  Always populated, even with reject_unsafe off — this is what
  // updl_lint reports from.
  const ImageAnalysis& analysis() const;  // defined in the .cpp (complete type)

 private:
  DecodedImage() { handler_table_.fill(-1); }

  DriverImage image_;
  std::vector<DecodedInsn> insns_;
  std::vector<DecodedHandler> handlers_;
  std::array<int16_t, 256> handler_table_;
  std::shared_ptr<const ImageAnalysis> analysis_;
  uint32_t crc_ = 0;
};

}  // namespace micropnp

#endif  // SRC_RT_DECODED_IMAGE_H_

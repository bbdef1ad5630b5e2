// μPnP bytecode instruction set.
//
// "Every bytecode instruction in µPnP is 8-bits in length, followed by zero
// or more operands" (Section 4.1).  The design is JVM-inspired but
// IoT-sized: a single operand stack of 32-bit slots, driver globals
// addressed by slot index, byte arrays addressed by array index, and event
// signalling as first-class instructions.
//
// Each opcode also carries an AVR cycle cost (see CycleCost) used by the
// runtime's 16 MHz ATMega cycle model to reproduce the Section 6.2
// measurements (39.7 us per instruction on average; push 11.1 us; pop
// 8.9 us).  Costs model an 8-bit MCU interpreting 32-bit stack slots:
// dispatch overhead plus multi-byte data movement; 32-bit multiply/divide
// are software routines and dominate.

#ifndef SRC_DSL_BYTECODE_H_
#define SRC_DSL_BYTECODE_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"

namespace micropnp {

enum class Op : uint8_t {
  kNop = 0x00,
  // --- stack / constants ---
  kPush0 = 0x01,     // push 0
  kPush1 = 0x02,     // push 1
  kPushI8 = 0x03,    // +i8    push sign-extended
  kPushI16 = 0x04,   // +i16   push sign-extended
  kPushI32 = 0x05,   // +i32
  kDup = 0x06,
  kPop = 0x07,
  // --- variables ---
  kLoadG = 0x08,     // +u8 slot    push global scalar
  kStoreG = 0x09,    // +u8 slot    pop into global scalar (truncates to type)
  kLoadL = 0x0a,     // +u8 index   push handler parameter
  kLoadA = 0x0b,     // +u8 array   pop index, push element (zero-extended)
  kStoreA = 0x0c,    // +u8 array   pop value, pop index, store element
  // --- arithmetic / logic (operate on int32) ---
  kAdd = 0x10,
  kSub = 0x11,
  kMul = 0x12,
  kDiv = 0x13,       // traps on divide-by-zero
  kMod = 0x14,       // traps on divide-by-zero
  kNeg = 0x15,
  kShl = 0x16,
  kShr = 0x17,       // arithmetic shift right
  kBitAnd = 0x18,
  kBitOr = 0x19,
  kBitXor = 0x1a,
  kBitNot = 0x1b,
  kLogicalNot = 0x1c,  // 0 -> 1, nonzero -> 0
  // --- comparisons (push 1/0) ---
  kEq = 0x20,
  kNe = 0x21,
  kLt = 0x22,
  kLe = 0x23,
  kGt = 0x24,
  kGe = 0x25,
  // --- control flow ---
  kJmp = 0x28,       // +i16 relative to the byte after the operand
  kJz = 0x29,        // +i16 pop, jump if zero
  kJnz = 0x2a,       // +i16 pop, jump if nonzero
  // --- events (Section 4.1 `signal`) ---
  kSignalSelf = 0x30,  // +u8 event id; argument count from the handler table
  kSignalLib = 0x31,   // +u8 lib, +u8 fn; argument count from the lib table
  // --- handler termination ---
  kRet = 0x38,       // end of handler
  kRetVal = 0x39,    // pop, produce scalar result (Section 4.1 `return`)
  kRetArr = 0x3a,    // +u8 array: produce array contents as result
};

// Number of operand bytes following an opcode; -1 for unknown opcodes.
int OpOperandBytes(Op op);

// Static operand-stack effect: slots popped and pushed by one execution of
// `op`.  Returns false for the signal ops, whose pop count is per-site (the
// target handler's / native function's argument count); callers resolve
// those from the handler and library tables.  kDup is modeled as pop 1 /
// push 2 (it requires one slot on entry).
bool OpStackEffect(Op op, int* pops, int* pushes);

// Mnemonic for the disassembler.
const char* OpName(Op op);

// Modeled AVR cycles to interpret one instance of this opcode at 16 MHz
// (dispatch + execution).  See header comment.
uint32_t OpCycleCost(Op op);

// True if `op` is a defined opcode.
bool OpIsValid(uint8_t byte);

// Disassembles a code buffer into one line per instruction ("0004  push.i16
// 3300").  Used by tooling and the driver workshop example.
std::string Disassemble(ByteSpan code);

}  // namespace micropnp

#endif  // SRC_DSL_BYTECODE_H_

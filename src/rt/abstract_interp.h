// Flow-sensitive abstract interpretation over decoded driver bytecode.
//
// PR-2's load-time verifier proves *structural* properties (valid opcodes,
// branch targets, static slot ranges, worst-case operand-stack depth).  This
// analyzer proves *value* properties on top of the same decoded stream: a
// per-program-point interval domain over every operand-stack cell, global
// slot and handler local, with delayed widening over loops and branch
// refinement through comparison predicates.  It classifies every runtime
// trap site three ways:
//
//   proven safe    -> counted in the trap-site census updl_lint reports;
//   proven unsafe  -> the image is rejected at Decode (and therefore at
//                     DriverManager::InstallImage / OTA deploy) with a
//                     structured Status, like the malformed-image path;
//   unknown        -> counted as guarded.
//
// The VM keeps every runtime check either way: a proof is a report, not a
// license to drop the check.  Per handler the analyzer also derives a
// worst-case execution bound (instructions and modeled cycles over the
// feasible acyclic subgraph).  Whole-image passes flag unreachable
// instructions, handlers for custom events that are never signalled, and
// reads of never-stored globals.
//
// Soundness assumptions (documented contract of the Vm API): host callbacks
// (VmHost::OnSelfSignal / OnLibSignal) may mutate globals only through
// Vm::set_global, which truncates to the declared type — so across a signal
// instruction every global is widened back to its declared-type range.
// Handler locals are immutable during a dispatch (there is no store-local
// opcode) and missing event arguments read as zero.

#ifndef SRC_RT_ABSTRACT_INTERP_H_
#define SRC_RT_ABSTRACT_INTERP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/rt/decoded_image.h"

namespace micropnp {

enum class FindingSeverity : uint8_t {
  kError,    // provable trap or policy violation: the image is rejected
  kWarning,  // suspicious but executable: reported by updl_lint only
  kNote,     // analysis diagnostics (e.g. a handler the analyzer gave up on)
};

enum class FindingKind : uint8_t {
  kDivisionByZero,        // divisor interval is exactly [0, 0]
  kSubscriptOutOfBounds,  // index interval disjoint from [0, array size)
  kUninitializedLocal,    // load.l beyond the handler's declared argc
  kUninitializedGlobal,   // load.g of a slot no handler ever stores
  kWatchdogExceeded,      // no feasible path reaches a return: guaranteed trap
  kUnreachableCode,       // instructions no handler can reach
  kDeadHandler,           // custom-event handler that is never signalled
  kAnalysisLimit,         // value analysis bailed out (structural facts only)
};

const char* FindingKindName(FindingKind kind);
const char* FindingSeverityName(FindingSeverity severity);

struct Finding {
  FindingKind kind = FindingKind::kDivisionByZero;
  FindingSeverity severity = FindingSeverity::kError;
  // Handler the finding was discovered in; meaningful for handler-scoped
  // findings (everything except kUnreachableCode / kUninitializedGlobal,
  // which are image-level and attributed to the first handler seen).
  EventId event = 0;
  uint16_t pc = 0;  // original bytecode offset
  std::string message;
};

// Worst-case execution facts for one handler.
struct HandlerWcet {
  EventId event = 0;
  bool bounded = false;       // feasible subgraph is acyclic
  uint64_t instructions = 0;  // longest feasible path (when bounded)
  uint64_t cycles = 0;        // modeled AVR cycles along that path
};

struct ImageAnalysis {
  std::vector<Finding> findings;  // handler order, then pc
  std::vector<HandlerWcet> wcet;  // one entry per decoded handler

  // Trap-site census (reachable sites only).
  size_t proven_div_sites = 0;        // divisor proven nonzero
  size_t guarded_div_sites = 0;       // runtime check stays
  size_t proven_subscript_sites = 0;  // subscript proven in bounds
  size_t guarded_subscript_sites = 0;

  const Finding* FirstError() const;
  bool has_errors() const { return FirstError() != nullptr; }
};

// Runs the abstract interpretation over a decoded instruction stream.
// Decode calls this, and updl_lint reads the result back via
// DecodedImage::analysis().
ImageAnalysis AnalyzeImage(const DriverImage& image, std::span<const DecodedInsn> code,
                           std::span<const DecodedHandler> handlers);

}  // namespace micropnp

#endif  // SRC_RT_ABSTRACT_INTERP_H_

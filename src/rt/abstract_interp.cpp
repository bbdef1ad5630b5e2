#include "src/rt/abstract_interp.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <utility>

#include "src/dsl/events.h"
#include "src/rt/vm.h"  // kVmWatchdogInstructions

namespace micropnp {
namespace {

constexpr int64_t kMin32 = INT32_MIN;
constexpr int64_t kMax32 = INT32_MAX;

// Delayed widening: a program point may refine this many times before its
// intervals are pushed to the widening targets, so counted loops with small
// constant bounds (`while i < 12`) converge to exact intervals instead of
// jumping straight to top.
constexpr uint32_t kWidenAfterJoins = 64;

// ---- interval domain --------------------------------------------------------

// The abstract value domain: an interval plus a known-nonzero bit.  The bit
// carries the one fact a pure interval cannot represent — "any int32 except
// zero" — which is exactly what the idiomatic division guard
// `if v != 0: ... / v` establishes.
struct Interval {
  int64_t lo = kMin32;
  int64_t hi = kMax32;
  bool nz = false;  // value proven != 0 even when [lo, hi] spans zero
  bool operator==(const Interval&) const = default;
  bool Contains(int64_t v) const { return lo <= v && v <= hi && !(nz && v == 0); }
  bool Empty() const { return lo > hi || (nz && lo == 0 && hi == 0); }
  bool IsSingleton() const { return lo == hi; }
};

constexpr Interval kTop{kMin32, kMax32};
Interval Single(int64_t v) { return {v, v, false}; }
bool IsZero(Interval v) { return v.lo == 0 && v.hi == 0 && !v.nz; }
Interval Hull(Interval a, Interval b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi), a.nz && b.nz};
}
Interval Meet(Interval a, Interval b) {
  return {std::max(a.lo, b.lo), std::min(a.hi, b.hi), a.nz || b.nz};
}

// int32 wrap semantics: a result range that cannot overflow stays exact;
// anything that might wrap widens to top.
Interval Fit(int64_t lo, int64_t hi) {
  return (lo >= kMin32 && hi <= kMax32) ? Interval{lo, hi, false} : kTop;
}

Interval TypeRange(DslType t) {
  switch (t) {
    case DslType::kUint8:
    case DslType::kChar:
      return {0, 255};
    case DslType::kUint16:
      return {0, 65535};
    case DslType::kInt8:
      return {-128, 127};
    case DslType::kInt16:
      return {-32768, 32767};
    case DslType::kBool:
      return {0, 1};
    case DslType::kUint32:  // stored bit-for-bit in an int32 slot
    case DslType::kInt32:
      return kTop;
  }
  return kTop;
}

// Transfer of Vm::TruncateTo: an in-range value is preserved, anything that
// might wrap lands somewhere in the declared-type range.
Interval StoreTruncate(DslType t, Interval v) {
  const Interval range = TypeRange(t);
  if (t == DslType::kBool) {
    if (!v.Contains(0)) return Single(1);
    if (IsZero(v)) return Single(0);
    return range;
  }
  if (v.lo >= range.lo && v.hi <= range.hi) return v;
  return range;
}

// ---- abstract values --------------------------------------------------------

enum class Src : uint8_t { kNone, kGlobal, kLocal };

// A comparison result remembers what it compared: `<slot> rel <bound>`.
// Branches on it refine the slot's interval along each edge.
struct Pred {
  bool valid = false;
  Src var = Src::kNone;
  uint8_t slot = 0;
  Op rel = Op::kEq;
  Interval bound;
  bool operator==(const Pred&) const = default;
};

struct AbstractValue {
  Interval iv;
  Src src = Src::kNone;  // cell still equals the current content of `slot`
  uint8_t slot = 0;
  Pred pred;
  bool operator==(const AbstractValue&) const = default;
};

AbstractValue FromInterval(Interval iv) {
  AbstractValue v;
  v.iv = iv;
  return v;
}

AbstractValue JoinValue(const AbstractValue& a, const AbstractValue& b) {
  AbstractValue out;
  out.iv = Hull(a.iv, b.iv);
  if (a.src == b.src && a.slot == b.slot) {
    out.src = a.src;
    out.slot = a.slot;
  }
  if (a.pred == b.pred) {
    out.pred = a.pred;
  }
  return out;
}

// Abstract machine state at one program point: exact operand-stack shape,
// one interval per global slot, one per handler local.
struct AbsState {
  bool reached = false;
  std::vector<AbstractValue> stack;
  std::vector<Interval> globals;
  std::array<Interval, kMaxHandlerArgs> locals{};
  bool operator==(const AbsState&) const = default;
};

// ---- relation helpers -------------------------------------------------------

Op MirrorRel(Op op) {  // a rel b  <=>  b mirror(rel) a
  switch (op) {
    case Op::kLt: return Op::kGt;
    case Op::kLe: return Op::kGe;
    case Op::kGt: return Op::kLt;
    case Op::kGe: return Op::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

Op NegateRel(Op op) {
  switch (op) {
    case Op::kEq: return Op::kNe;
    case Op::kNe: return Op::kEq;
    case Op::kLt: return Op::kGe;
    case Op::kLe: return Op::kGt;
    case Op::kGt: return Op::kLe;
    case Op::kGe: return Op::kLt;
    default: return op;
  }
}

// Narrow `v` assuming `v rel bound` holds.  May return an empty interval
// (the branch edge is infeasible).
Interval RefineByRel(Interval v, Op rel, Interval bound) {
  switch (rel) {
    case Op::kLt:
      v.hi = std::min(v.hi, bound.hi - 1);
      break;
    case Op::kLe:
      v.hi = std::min(v.hi, bound.hi);
      break;
    case Op::kGt:
      v.lo = std::max(v.lo, bound.lo + 1);
      break;
    case Op::kGe:
      v.lo = std::max(v.lo, bound.lo);
      break;
    case Op::kEq:
      v = Meet(v, bound);
      break;
    case Op::kNe:
      if (bound.IsSingleton()) {
        if (v.lo == bound.lo) ++v.lo;
        if (v.hi == bound.lo) --v.hi;
        if (bound.lo == 0) v.nz = true;
      }
      break;
    default:
      break;
  }
  return v;
}

// 0/1 result interval of `a rel b` over intervals.
Interval CompareResult(Op op, Interval a, Interval b) {
  bool always = false, never = false;
  switch (op) {
    case Op::kEq:
      always = a.IsSingleton() && a == b;
      never = Meet(a, b).Empty();
      break;
    case Op::kNe:
      never = a.IsSingleton() && a == b;
      always = Meet(a, b).Empty();
      break;
    case Op::kLt:
      always = a.hi < b.lo;
      never = a.lo >= b.hi;
      break;
    case Op::kLe:
      always = a.hi <= b.lo;
      never = a.lo > b.hi;
      break;
    case Op::kGt:
      always = a.lo > b.hi;
      never = a.hi <= b.lo;
      break;
    case Op::kGe:
      always = a.lo >= b.hi;
      never = a.hi < b.lo;
      break;
    default:
      break;
  }
  if (always) return Single(1);
  if (never) return Single(0);
  return {0, 1};
}

// Binary arithmetic transfer (32-bit wrap semantics via Fit).
Interval ArithResult(Op op, Interval a, Interval b) {
  switch (op) {
    case Op::kAdd:
      return Fit(a.lo + b.lo, a.hi + b.hi);
    case Op::kSub:
      return Fit(a.lo - b.hi, a.hi - b.lo);
    case Op::kMul: {
      const int64_t c[] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
      return Fit(*std::min_element(c, c + 4), *std::max_element(c, c + 4));
    }
    case Op::kDiv: {
      if (b.Contains(0)) return kTop;  // only non-trapping executions continue
      // b is one-signed, so the quotient is monotone in each operand and the
      // extremes sit at interval corners.  INT32_MIN / -1 wraps; Fit covers it.
      const int64_t c[] = {a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi};
      return Fit(*std::min_element(c, c + 4), *std::max_element(c, c + 4));
    }
    case Op::kMod: {
      if (b.Contains(0)) return kTop;
      const int64_t m =
          std::max(b.lo < 0 ? -b.lo : b.lo, b.hi < 0 ? -b.hi : b.hi) - 1;
      Interval r{-m, m};  // sign follows the dividend
      if (a.lo >= 0) r.lo = 0;
      if (a.hi <= 0) r.hi = 0;
      return r;
    }
    case Op::kShl:
      if (b.IsSingleton()) {
        const int64_t s = b.lo & 31;
        return Fit(a.lo << s, a.hi << s);
      }
      return kTop;
    case Op::kShr:
      if (b.IsSingleton()) {
        const int64_t s = b.lo & 31;
        return {a.lo >> s, a.hi >> s};  // arithmetic shift is monotone
      }
      // Variable shift: each result lies between the operand and its sign.
      return {a.lo >= 0 ? 0 : a.lo, a.hi >= 0 ? a.hi : -1};
    case Op::kBitAnd:
      if (a.IsSingleton() && b.IsSingleton()) return Single(a.lo & b.lo);
      if (a.lo >= 0 && b.lo >= 0) return {0, std::min(a.hi, b.hi)};
      return kTop;
    case Op::kBitOr:
      if (a.IsSingleton() && b.IsSingleton()) return Single(a.lo | b.lo);
      if (a.lo >= 0 && b.lo >= 0) {
        return Fit(std::max(a.lo, b.lo), a.hi + b.hi);  // a|b <= a+b for a,b >= 0
      }
      return kTop;
    case Op::kBitXor:
      if (a.IsSingleton() && b.IsSingleton()) return Single(a.lo ^ b.lo);
      if (a.lo >= 0 && b.lo >= 0) return Fit(0, a.hi + b.hi);
      return kTop;
    default:
      return kTop;
  }
}

std::string HexEvent(EventId event) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%02x", event);
  return buf;
}

// ---- the analyzer -----------------------------------------------------------

class Analyzer {
 public:
  Analyzer(const DriverImage& image, std::span<const DecodedInsn> code,
           std::span<const DecodedHandler> handlers)
      : image_(image), code_(code), handlers_(handlers) {}

  ImageAnalysis Run();

 private:
  // Facts accumulated per instruction across every handler that reaches it
  // (handlers may share code; a proof must hold for all of them).
  struct SiteFacts {
    bool reachable = false;
    bool div_safe = true;
    bool sub_safe = true;
  };

  void Emit(FindingKind kind, FindingSeverity severity, EventId event, uint16_t pc,
            std::string message) {
    for (const auto& [k, p] : emitted_) {
      if (k == kind && p == pc) return;  // shared code: report a site once
    }
    emitted_.emplace_back(kind, pc);
    if (severity == FindingSeverity::kError) ++error_count_;
    out_.findings.push_back(Finding{kind, severity, event, pc, std::move(message)});
  }

  Interval* SlotRef(AbsState& s, Src src, uint8_t slot) {
    if (src == Src::kGlobal && slot < s.globals.size()) return &s.globals[slot];
    if (src == Src::kLocal && slot < s.locals.size()) return &s.locals[slot];
    return nullptr;
  }

  void KillGlobal(AbsState& s, uint8_t slot) {
    for (AbstractValue& v : s.stack) {
      if (v.src == Src::kGlobal && v.slot == slot) v.src = Src::kNone;
      if (v.pred.valid && v.pred.var == Src::kGlobal && v.pred.slot == slot) v.pred = Pred{};
    }
  }

  void KillAllGlobals(AbsState& s) {
    for (size_t g = 0; g < s.globals.size(); ++g) {
      s.globals[g] = TypeRange(image_.scalar_types[g]);
    }
    for (AbstractValue& v : s.stack) {
      if (v.src == Src::kGlobal) v.src = Src::kNone;
      if (v.pred.valid && v.pred.var == Src::kGlobal) v.pred = Pred{};
    }
  }

  void AddEdge(uint32_t from, uint32_t to) {
    std::vector<uint32_t>& out = succs_[from];
    if (std::find(out.begin(), out.end(), to) == out.end()) out.push_back(to);
  }

  void Propagate(uint32_t idx, AbsState&& incoming);
  void Flow(uint32_t from, uint32_t to, AbsState&& state) {
    AddEdge(from, to);
    Propagate(to, std::move(state));
  }

  // `taken_nonzero`: refine `state` assuming the branch condition `cond` was
  // nonzero (true) / zero (false).  Returns false when the edge is infeasible.
  bool RefineBranch(AbsState& state, const AbstractValue& cond, bool taken_nonzero) {
    if (cond.pred.valid) {
      Interval* target = SlotRef(state, cond.pred.var, cond.pred.slot);
      if (target != nullptr) {
        const Op rel = taken_nonzero ? cond.pred.rel : NegateRel(cond.pred.rel);
        const Interval refined = RefineByRel(*target, rel, cond.pred.bound);
        if (refined.Empty()) return false;
        *target = refined;
      }
      return true;
    }
    if (cond.src != Src::kNone) {
      Interval* target = SlotRef(state, cond.src, cond.slot);
      if (target != nullptr) {
        Interval refined = *target;
        if (taken_nonzero) {
          if (refined.lo == 0) ++refined.lo;
          if (refined.hi == 0) --refined.hi;
          refined.nz = true;
        } else {
          refined = Meet(refined, Single(0));
        }
        if (refined.Empty()) return false;
        *target = refined;
      }
    }
    return true;
  }

  void Step(uint32_t idx, const DecodedHandler& h);
  void AnalyzeHandler(const DecodedHandler& h);
  void StructuralHandler(const DecodedHandler& h);
  void HarvestHandler(const DecodedHandler& h);
  void FinishHandler(const DecodedHandler& h, size_t errors_before);

  const DriverImage& image_;
  std::span<const DecodedInsn> code_;
  std::span<const DecodedHandler> handlers_;

  // Per-handler scratch, rebuilt by AnalyzeHandler.
  std::vector<AbsState> in_;
  std::vector<uint32_t> joins_;
  std::vector<std::vector<uint32_t>> succs_;
  std::deque<uint32_t> worklist_;
  bool bailed_ = false;

  // Whole-image accumulators.
  ImageAnalysis out_;
  std::vector<SiteFacts> facts_;
  std::array<bool, 256> stored_global_{};
  std::array<bool, 256> signalled_event_{};
  std::vector<std::pair<FindingKind, uint16_t>> emitted_;
  size_t error_count_ = 0;
};

void Analyzer::Propagate(uint32_t idx, AbsState&& incoming) {
  AbsState& dst = in_[idx];
  if (!dst.reached) {
    dst = std::move(incoming);
    dst.reached = true;
    worklist_.push_back(idx);
    return;
  }
  if (dst.stack.size() != incoming.stack.size()) {
    // Two paths meet at different operand-stack depths.  PR-2's structural
    // verifier allows this (its depth intervals just hull); the value
    // analysis cannot model it, so the handler falls back to structural
    // facts only.
    bailed_ = true;
    return;
  }
  AbsState joined = dst;
  for (size_t i = 0; i < joined.stack.size(); ++i) {
    joined.stack[i] = JoinValue(dst.stack[i], incoming.stack[i]);
  }
  for (size_t g = 0; g < joined.globals.size(); ++g) {
    joined.globals[g] = Hull(dst.globals[g], incoming.globals[g]);
  }
  for (size_t l = 0; l < joined.locals.size(); ++l) {
    joined.locals[l] = Hull(dst.locals[l], incoming.locals[l]);
  }
  if (joined == dst) return;
  if (++joins_[idx] > kWidenAfterJoins) {
    // Widen every still-growing bound to its target so the fixpoint is
    // reached in a bounded number of steps.
    for (size_t i = 0; i < joined.stack.size(); ++i) {
      if (joined.stack[i].iv.lo < dst.stack[i].iv.lo) joined.stack[i].iv.lo = kMin32;
      if (joined.stack[i].iv.hi > dst.stack[i].iv.hi) joined.stack[i].iv.hi = kMax32;
    }
    for (size_t g = 0; g < joined.globals.size(); ++g) {
      const Interval range = TypeRange(image_.scalar_types[g]);
      if (joined.globals[g].lo < dst.globals[g].lo) joined.globals[g].lo = range.lo;
      if (joined.globals[g].hi > dst.globals[g].hi) joined.globals[g].hi = range.hi;
    }
    for (size_t l = 0; l < joined.locals.size(); ++l) {
      if (joined.locals[l].lo < dst.locals[l].lo) joined.locals[l].lo = kMin32;
      if (joined.locals[l].hi > dst.locals[l].hi) joined.locals[l].hi = kMax32;
    }
  }
  dst = std::move(joined);
  worklist_.push_back(idx);
}

void Analyzer::Step(uint32_t idx, const DecodedHandler& h) {
  const DecodedInsn& insn = code_[idx];
  const Op op = insn.op;
  AbsState s = in_[idx];  // transfer runs on a copy of the in-state

  int pops = 0, pushes = 0;
  if (!OpStackEffect(op, &pops, &pushes)) {
    pops = insn.c;  // signal ops: per-site argument count
  }
  if (s.stack.size() < static_cast<size_t>(pops)) {
    bailed_ = true;  // cannot happen for PR-2-verified streams; stay defensive
    return;
  }

  auto push = [&s](AbstractValue v) { s.stack.push_back(std::move(v)); };
  auto pop = [&s]() {
    AbstractValue v = std::move(s.stack.back());
    s.stack.pop_back();
    return v;
  };
  const uint32_t next = idx + 1;

  switch (op) {
    case Op::kNop:
      break;
    case Op::kPush0:
      push(FromInterval(Single(0)));
      break;
    case Op::kPush1:
      push(FromInterval(Single(1)));
      break;
    case Op::kPushI8:
    case Op::kPushI16:
    case Op::kPushI32:
      push(FromInterval(Single(insn.imm)));
      break;
    case Op::kDup:
      push(s.stack.back());
      break;
    case Op::kPop:
      pop();
      break;
    case Op::kLoadG: {
      AbstractValue v = FromInterval(s.globals[insn.a]);
      v.src = Src::kGlobal;
      v.slot = insn.a;
      push(std::move(v));
      break;
    }
    case Op::kStoreG: {
      const AbstractValue v = pop();
      s.globals[insn.a] = StoreTruncate(static_cast<DslType>(insn.b), v.iv);
      KillGlobal(s, insn.a);
      break;
    }
    case Op::kLoadL: {
      // Slots beyond the declared argc read the zero BindLocals left there.
      AbstractValue v = FromInterval(insn.a < h.argc ? s.locals[insn.a] : Single(0));
      v.src = Src::kLocal;
      v.slot = insn.a;
      push(std::move(v));
      break;
    }
    case Op::kLoadA: {
      const AbstractValue index = pop();
      const int64_t size = image_.array_sizes[insn.a];
      if (Meet(index.iv, {0, size - 1}).Empty()) {
        return;  // guaranteed trap: execution cannot continue past here
      }
      push(FromInterval({0, 255}));
      break;
    }
    case Op::kStoreA: {
      pop();  // value
      const AbstractValue index = pop();
      const int64_t size = image_.array_sizes[insn.a];
      if (Meet(index.iv, {0, size - 1}).Empty()) {
        return;  // guaranteed trap
      }
      break;
    }
    case Op::kDiv:
    case Op::kMod: {
      const AbstractValue b = pop();
      const AbstractValue a = pop();
      if (IsZero(b.iv)) {
        return;  // guaranteed trap
      }
      push(FromInterval(ArithResult(op, a.iv, b.iv)));
      break;
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kShl:
    case Op::kShr:
    case Op::kBitAnd:
    case Op::kBitOr:
    case Op::kBitXor: {
      const AbstractValue b = pop();
      const AbstractValue a = pop();
      push(FromInterval(ArithResult(op, a.iv, b.iv)));
      break;
    }
    case Op::kNeg: {
      const AbstractValue a = pop();
      push(FromInterval(Fit(-a.iv.hi, -a.iv.lo)));
      break;
    }
    case Op::kBitNot: {
      const AbstractValue a = pop();
      push(FromInterval({-1 - a.iv.hi, -1 - a.iv.lo}));
      break;
    }
    case Op::kLogicalNot: {
      const AbstractValue a = pop();
      AbstractValue r;
      if (!a.iv.Contains(0)) {
        r.iv = Single(0);
      } else if (IsZero(a.iv)) {
        r.iv = Single(1);
      } else {
        r.iv = {0, 1};
      }
      if (a.pred.valid) {
        r.pred = a.pred;
        r.pred.rel = NegateRel(a.pred.rel);
      }
      push(std::move(r));
      break;
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      const AbstractValue b = pop();
      const AbstractValue a = pop();
      AbstractValue r;
      r.iv = CompareResult(op, a.iv, b.iv);
      if (a.src != Src::kNone) {
        r.pred = Pred{true, a.src, a.slot, op, b.iv};
      } else if (b.src != Src::kNone) {
        r.pred = Pred{true, b.src, b.slot, MirrorRel(op), a.iv};
      }
      push(std::move(r));
      break;
    }
    case Op::kJmp:
      Flow(idx, static_cast<uint32_t>(insn.imm), std::move(s));
      return;
    case Op::kJz:
    case Op::kJnz: {
      const AbstractValue cond = pop();
      const uint32_t zero_target = op == Op::kJz ? static_cast<uint32_t>(insn.imm) : next;
      const uint32_t nonzero_target = op == Op::kJz ? next : static_cast<uint32_t>(insn.imm);
      if (cond.iv.Contains(0)) {
        AbsState taken = s;
        if (RefineBranch(taken, cond, /*taken_nonzero=*/false)) {
          Flow(idx, zero_target, std::move(taken));
        }
      }
      if (!IsZero(cond.iv)) {
        AbsState taken = std::move(s);
        if (RefineBranch(taken, cond, /*taken_nonzero=*/true)) {
          Flow(idx, nonzero_target, std::move(taken));
        }
      }
      return;
    }
    case Op::kSignalSelf:
    case Op::kSignalLib:
      for (int i = 0; i < pops; ++i) pop();
      // The host may run arbitrary native code here; assume only that any
      // global it writes back (Vm::set_global) respects the declared type.
      KillAllGlobals(s);
      break;
    case Op::kRet:
    case Op::kRetVal:
    case Op::kRetArr:
      return;  // terminal
  }
  Flow(idx, next, std::move(s));
}

void Analyzer::AnalyzeHandler(const DecodedHandler& h) {
  const size_t errors_before = error_count_;
  in_.assign(code_.size(), AbsState{});
  joins_.assign(code_.size(), 0);
  succs_.assign(code_.size(), {});
  worklist_.clear();
  bailed_ = false;

  AbsState entry;
  entry.reached = true;
  entry.globals.reserve(image_.scalar_types.size());
  for (DslType t : image_.scalar_types) {
    entry.globals.push_back(TypeRange(t));
  }
  entry.locals.fill(kTop);  // event arguments are arbitrary int32s
  Propagate(h.entry, std::move(entry));

  while (!worklist_.empty() && !bailed_) {
    const uint32_t idx = worklist_.front();
    worklist_.pop_front();
    Step(idx, h);
  }

  if (bailed_) {
    StructuralHandler(h);
  } else {
    HarvestHandler(h);
  }
  FinishHandler(h, errors_before);
}

// Extracts findings and per-site facts from the handler's fixpoint states.
// After a bail the states hold reachability only: every reachable trap site
// counts as guarded and only the uninitialized-read findings are derivable.
void Analyzer::HarvestHandler(const DecodedHandler& h) {
  for (uint32_t idx = 0; idx < code_.size(); ++idx) {
    if (!in_[idx].reached) continue;
    facts_[idx].reachable = true;
    const DecodedInsn& insn = code_[idx];
    const AbsState& s = in_[idx];
    switch (insn.op) {
      case Op::kDiv:
      case Op::kMod: {
        if (bailed_) {
          facts_[idx].div_safe = false;
          break;
        }
        const Interval divisor = s.stack.back().iv;
        if (IsZero(divisor)) {
          facts_[idx].div_safe = false;
          Emit(FindingKind::kDivisionByZero, FindingSeverity::kError, h.event, insn.pc,
               "division by zero: the divisor is always 0");
        } else if (divisor.Contains(0)) {
          facts_[idx].div_safe = false;
        }
        break;
      }
      case Op::kLoadA:
      case Op::kStoreA: {
        if (bailed_) {
          facts_[idx].sub_safe = false;
          break;
        }
        const Interval index = insn.op == Op::kLoadA
                                   ? s.stack.back().iv
                                   : s.stack[s.stack.size() - 2].iv;
        const int64_t size = image_.array_sizes[insn.a];
        if (Meet(index, {0, size - 1}).Empty()) {
          facts_[idx].sub_safe = false;
          Emit(FindingKind::kSubscriptOutOfBounds, FindingSeverity::kError, h.event, insn.pc,
               "array subscript always out of bounds: index in [" +
                   std::to_string(index.lo) + ", " + std::to_string(index.hi) +
                   "], array size " + std::to_string(size));
        } else if (!(index.lo >= 0 && index.hi < size)) {
          facts_[idx].sub_safe = false;
        }
        break;
      }
      case Op::kLoadL:
        if (insn.a >= h.argc) {
          Emit(FindingKind::kUninitializedLocal, FindingSeverity::kError, h.event, insn.pc,
               "read of uninitialized local " + std::to_string(insn.a) +
                   ": handler for event " + HexEvent(h.event) + " takes " +
                   std::to_string(h.argc) + " argument(s)");
        }
        break;
      case Op::kLoadG:
        if (!stored_global_[insn.a]) {
          Emit(FindingKind::kUninitializedGlobal, FindingSeverity::kError, h.event, insn.pc,
               "read of global slot " + std::to_string(insn.a) +
                   " which no handler ever stores");
        }
        break;
      default:
        break;
    }
  }
}

// Fallback when the value analysis bailed: plain structural reachability.
void Analyzer::StructuralHandler(const DecodedHandler& h) {
  in_.assign(code_.size(), AbsState{});
  succs_.assign(code_.size(), {});
  std::deque<uint32_t> frontier = {h.entry};
  in_[h.entry].reached = true;
  while (!frontier.empty()) {
    const uint32_t idx = frontier.front();
    frontier.pop_front();
    ForEachSuccessor(code_[idx], idx, [&](size_t successor) {
      const auto to = static_cast<uint32_t>(successor);
      AddEdge(idx, to);
      if (!in_[to].reached) {
        in_[to].reached = true;
        frontier.push_back(to);
      }
    });
  }
  HarvestHandler(h);
  Emit(FindingKind::kAnalysisLimit, FindingSeverity::kNote, h.event, code_[h.entry].pc,
       "operand-stack depths disagree at a join in handler for event " + HexEvent(h.event) +
           "; value analysis skipped (runtime checks kept)");
}

// Return-reachability and worst-case execution bound over the handler's
// feasible subgraph (in_ / succs_ as left by the analysis or the fallback).
void Analyzer::FinishHandler(const DecodedHandler& h, size_t errors_before) {
  const size_t n = code_.size();
  std::vector<uint32_t> visited;
  for (uint32_t i = 0; i < n; ++i) {
    if (in_[i].reached) visited.push_back(i);
  }

  // Reverse reachability from every visited return.
  std::vector<std::vector<uint32_t>> preds(n);
  for (uint32_t u : visited) {
    for (uint32_t v : succs_[u]) preds[v].push_back(u);
  }
  std::vector<char> reaches_ret(n, 0);
  std::deque<uint32_t> frontier;
  for (uint32_t i : visited) {
    const Op op = code_[i].op;
    if (op == Op::kRet || op == Op::kRetVal || op == Op::kRetArr) {
      reaches_ret[i] = 1;
      frontier.push_back(i);
    }
  }
  while (!frontier.empty()) {
    const uint32_t i = frontier.front();
    frontier.pop_front();
    for (uint32_t p : preds[i]) {
      if (!reaches_ret[p]) {
        reaches_ret[p] = 1;
        frontier.push_back(p);
      }
    }
  }
  // No feasible path out of the handler: if no other error already explains
  // it (e.g. every path dead-ends in a provable trap), the watchdog trap is
  // guaranteed and the image is rejected.
  if (!reaches_ret[h.entry] && error_count_ == errors_before) {
    Emit(FindingKind::kWatchdogExceeded, FindingSeverity::kError, h.event, code_[h.entry].pc,
         "handler for event " + HexEvent(h.event) +
             " cannot reach a return: the watchdog trap is guaranteed after " +
             std::to_string(kVmWatchdogInstructions) + " instructions");
  }

  // WCET: longest path over the feasible subgraph when it is acyclic.
  HandlerWcet wcet;
  wcet.event = h.event;
  std::vector<uint32_t> indegree(n, 0);
  for (uint32_t u : visited) {
    for (uint32_t v : succs_[u]) ++indegree[v];
  }
  std::deque<uint32_t> ready;
  for (uint32_t i : visited) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<uint32_t> topo;
  topo.reserve(visited.size());
  while (!ready.empty()) {
    const uint32_t u = ready.front();
    ready.pop_front();
    topo.push_back(u);
    for (uint32_t v : succs_[u]) {
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }
  if (topo.size() == visited.size()) {
    wcet.bounded = true;
    std::vector<uint64_t> max_instr(n, 0), max_cycles(n, 0);
    max_instr[h.entry] = 1;
    max_cycles[h.entry] = code_[h.entry].cycles;
    for (uint32_t u : topo) {
      if (max_instr[u] == 0) continue;  // not reachable from the entry
      for (uint32_t v : succs_[u]) {
        max_instr[v] = std::max(max_instr[v], max_instr[u] + 1);
        max_cycles[v] = std::max(max_cycles[v], max_cycles[u] + code_[v].cycles);
      }
      wcet.instructions = std::max(wcet.instructions, max_instr[u]);
      wcet.cycles = std::max(wcet.cycles, max_cycles[u]);
    }
  }
  out_.wcet.push_back(wcet);
}

ImageAnalysis Analyzer::Run() {
  facts_.assign(code_.size(), SiteFacts{});

  // Static pre-scan: which globals are ever stored, which custom events are
  // ever signalled.  Presence anywhere in the image counts (conservative).
  for (const DecodedInsn& insn : code_) {
    if (insn.op == Op::kStoreG) stored_global_[insn.a] = true;
    if (insn.op == Op::kSignalSelf) signalled_event_[insn.a] = true;
  }

  for (const DecodedHandler& h : handlers_) {
    AnalyzeHandler(h);
  }

  // Instructions no handler reaches, reported one finding per run.
  for (uint32_t i = 0; i < code_.size(); ++i) {
    if (facts_[i].reachable) continue;
    uint32_t end = i;
    while (end + 1 < code_.size() && !facts_[end + 1].reachable) ++end;
    Emit(FindingKind::kUnreachableCode, FindingSeverity::kWarning, 0, code_[i].pc,
         "unreachable code: " + std::to_string(end - i + 1) + " instruction(s) at pc " +
             std::to_string(code_[i].pc) + ".." + std::to_string(code_[end].pc));
    i = end;
  }

  // Custom-event handlers nothing ever signals (well-known and error events
  // are externally triggerable and never dead).
  for (const DecodedHandler& h : handlers_) {
    if (h.event >= kEventCustomBase && !IsErrorEvent(h.event) && !signalled_event_[h.event]) {
      Emit(FindingKind::kDeadHandler, FindingSeverity::kWarning, h.event, code_[h.entry].pc,
           "handler for custom event " + HexEvent(h.event) + " is never signalled");
    }
  }

  // Fold the per-site facts into the census.
  for (uint32_t i = 0; i < code_.size(); ++i) {
    if (!facts_[i].reachable) continue;
    const Op op = code_[i].op;
    if (op == Op::kDiv || op == Op::kMod) {
      ++(facts_[i].div_safe ? out_.proven_div_sites : out_.guarded_div_sites);
    }
    if (op == Op::kLoadA || op == Op::kStoreA) {
      ++(facts_[i].sub_safe ? out_.proven_subscript_sites : out_.guarded_subscript_sites);
    }
  }
  return std::move(out_);
}

}  // namespace

const char* FindingKindName(FindingKind kind) {
  switch (kind) {
    case FindingKind::kDivisionByZero: return "division-by-zero";
    case FindingKind::kSubscriptOutOfBounds: return "subscript-out-of-bounds";
    case FindingKind::kUninitializedLocal: return "uninitialized-local";
    case FindingKind::kUninitializedGlobal: return "uninitialized-global";
    case FindingKind::kWatchdogExceeded: return "watchdog-exceeded";
    case FindingKind::kUnreachableCode: return "unreachable-code";
    case FindingKind::kDeadHandler: return "dead-handler";
    case FindingKind::kAnalysisLimit: return "analysis-limit";
  }
  return "unknown";
}

const char* FindingSeverityName(FindingSeverity severity) {
  switch (severity) {
    case FindingSeverity::kError: return "error";
    case FindingSeverity::kWarning: return "warning";
    case FindingSeverity::kNote: return "note";
  }
  return "unknown";
}

const Finding* ImageAnalysis::FirstError() const {
  for (const Finding& f : findings) {
    if (f.severity == FindingSeverity::kError) return &f;
  }
  return nullptr;
}

ImageAnalysis AnalyzeImage(const DriverImage& image, std::span<const DecodedInsn> code,
                           std::span<const DecodedHandler> handlers) {
  if (code.empty()) {
    return ImageAnalysis{};
  }
  return Analyzer(image, code, handlers).Run();
}

}  // namespace micropnp

// Tests for the abstract interpreter (src/rt/abstract_interp.h): one
// hand-built image per finding class asserting the deploy-time rejection
// Status, accept-tests proving every bundled driver passes, the trap-site
// census and WCET bounds updl_lint reports, and a differential test holding
// Vm::Dispatch to the seed interpreter across proven, guarded and trapping
// sites.

#include <gtest/gtest.h>

#include "src/core/driver_sources.h"
#include "src/dsl/compiler.h"
#include "src/rt/abstract_interp.h"
#include "src/rt/decoded_image.h"
#include "src/rt/driver_manager.h"
#include "src/rt/event_router.h"
#include "src/rt/vm.h"
#include "tests/oracles/reference_vm.h"

namespace micropnp {
namespace {

uint8_t B(Op op) { return static_cast<uint8_t>(op); }

// A minimal image around raw code bytes: one init handler at offset 0.
DriverImage MakeImage(std::vector<uint8_t> code) {
  DriverImage image;
  image.device_id = 1;
  image.handlers.push_back(HandlerEntry{kEventInit, 0, 0});
  image.code = std::move(code);
  return image;
}

void ExpectRejected(const DriverImage& image, const std::string& fragment) {
  Result<DecodedImage> decoded = DecodedImage::Decode(image);
  ASSERT_FALSE(decoded.ok()) << "expected rejection for: " << fragment;
  EXPECT_NE(decoded.status().message().find("unsafe driver image"), std::string::npos)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find(fragment), std::string::npos)
      << "got: " << decoded.status().ToString();
}

// ------------------------------------------- per-class rejection tests ------

TEST(AbstractInterp, RejectsProvableDivisionByZero) {
  ExpectRejected(MakeImage({B(Op::kPush1), B(Op::kPush0), B(Op::kDiv),  //
                            B(Op::kPop), B(Op::kRet)}),
                 "division by zero");
}

TEST(AbstractInterp, RejectsProvableModByZero) {
  ExpectRejected(MakeImage({B(Op::kPush1), B(Op::kPush0), B(Op::kMod),  //
                            B(Op::kPop), B(Op::kRet)}),
                 "division by zero");
}

TEST(AbstractInterp, RejectsProvableOutOfBoundsSubscript) {
  DriverImage image = MakeImage({B(Op::kPushI8), 0x05,  //
                                 B(Op::kLoadA), 0x00,   //
                                 B(Op::kPop), B(Op::kRet)});
  image.array_sizes = {4};  // index is always 5: disjoint from [0, 4)
  ExpectRejected(image, "array subscript always out of bounds");
}

TEST(AbstractInterp, RejectsProvableNegativeSubscriptStore) {
  DriverImage image = MakeImage({B(Op::kPushI8), 0xff,  // index -1
                                 B(Op::kPush1),         // value
                                 B(Op::kStoreA), 0x00,  //
                                 B(Op::kRet)});
  image.array_sizes = {4};
  ExpectRejected(image, "array subscript always out of bounds");
}

TEST(AbstractInterp, RejectsUninitializedLocalRead) {
  // The init handler declares no parameters; load.l 0 reads a slot no event
  // argument ever binds.
  ExpectRejected(MakeImage({B(Op::kLoadL), 0x00, B(Op::kPop), B(Op::kRet)}),
                 "read of uninitialized local");
}

TEST(AbstractInterp, RejectsUninitializedGlobalRead) {
  DriverImage image = MakeImage({B(Op::kLoadG), 0x00, B(Op::kPop), B(Op::kRet)});
  image.scalar_types = {DslType::kInt32};  // declared but never stored
  ExpectRejected(image, "which no handler ever stores");
}

TEST(AbstractInterp, RejectsGuaranteedWatchdogLoop) {
  // An infinite stack-balanced loop with no feasible path to a return: the
  // old "watchdog still traps at runtime" shape, now refused at deploy time.
  ExpectRejected(MakeImage({B(Op::kNop), B(Op::kJmp), 0xff, 0xfc}), "watchdog");
}

TEST(AbstractInterp, RejectsConstantConditionInfiniteLoop) {
  // while (1) { } — the branch condition is constant, so the exit edge is
  // infeasible and no return is reachable.
  ExpectRejected(MakeImage({B(Op::kPush1),             //
                            B(Op::kJnz), 0xff, 0xfc,   // always taken, back to push
                            B(Op::kRet)}),
                 "watchdog");
}

TEST(AbstractInterp, InstallImageRejectsUnsafeAtDeployTime) {
  // The same gate fires on the DriverManager install path (local or OTA).
  Scheduler sched;
  EventRouter router;
  DecodeCache cache;
  DriverManager manager(sched, router, cache);
  const Status status = manager.InstallImage(
      MakeImage({B(Op::kPush1), B(Op::kPush0), B(Op::kDiv), B(Op::kPop), B(Op::kRet)}));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsafe driver image"), std::string::npos)
      << status.ToString();
}

// --------------------------------------------------- warnings and notes -----

TEST(AbstractInterp, WarnsOnDeadCustomHandler) {
  DriverImage image = MakeImage({B(Op::kRet)});
  image.handlers.push_back(HandlerEntry{0x41, 0, 0});  // custom, never signalled
  Result<DecodedImage> decoded = DecodedImage::Decode(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();  // warning, not error
  bool found = false;
  for (const Finding& f : decoded->analysis().findings) {
    if (f.kind == FindingKind::kDeadHandler) {
      EXPECT_EQ(f.severity, FindingSeverity::kWarning);
      EXPECT_EQ(f.event, 0x41);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AbstractInterp, WarnsOnUnreachableCode) {
  // jmp over a nop nothing branches back to.
  Result<DecodedImage> decoded = DecodedImage::Decode(
      MakeImage({B(Op::kJmp), 0x00, 0x01, B(Op::kNop), B(Op::kRet)}));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  bool found = false;
  for (const Finding& f : decoded->analysis().findings) {
    if (f.kind == FindingKind::kUnreachableCode) {
      EXPECT_EQ(f.severity, FindingSeverity::kWarning);
      EXPECT_EQ(f.pc, 3u);  // the skipped nop
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(AbstractInterp, BailsToStructuralFactsOnDepthMismatchJoin) {
  // Two paths meet at the ret with different operand-stack depths (0 and 1).
  // PR-2's depth-interval verifier accepts this, the value analysis cannot
  // model it: the handler must degrade to structural facts (a kAnalysisLimit
  // note) instead of rejecting or crashing.
  DriverImage image = MakeImage({B(Op::kLoadL), 0x00,      // arbitrary condition
                                 B(Op::kJz), 0x00, 0x01,   // skip the push
                                 B(Op::kPush0),            //
                                 B(Op::kRet)});
  image.handlers[0].argc = 1;
  Result<DecodedImage> decoded = DecodedImage::Decode(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  bool noted = false;
  for (const Finding& f : decoded->analysis().findings) {
    noted |= f.kind == FindingKind::kAnalysisLimit;
  }
  EXPECT_TRUE(noted);
  // No value proofs may survive a bail.  The structural WCET is still sound
  // (it bounds a superset of the feasible paths), so this acyclic handler
  // keeps a bounded WCET.
  EXPECT_EQ(decoded->analysis().proven_div_sites, 0u);
  EXPECT_EQ(decoded->analysis().proven_subscript_sites, 0u);
  ASSERT_EQ(decoded->analysis().wcet.size(), 1u);
  EXPECT_TRUE(decoded->analysis().wcet[0].bounded);
}

// ---------------------------------------------- trap-site census and WCET ---

TEST(AbstractInterp, CountsProvenAndGuardedTrapSites) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
int32_t r, i;
uint8_t buf[8];
event init():
    r = 100 / 3;
    i = 0;
    while i < 8:
        buf[i] = i;
        i += 1;
event destroy():
    r = 0;
event write(int32_t v):
    if v != 0:
        r = 100 / v;
    r = r / (v + 1);
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<DecodedImage> decoded = DecodedImage::Decode(*image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  const ImageAnalysis& analysis = decoded->analysis();
  // 100/3 is proven; the loop subscript buf[i] with i in [0, 7] is proven;
  // 100/v under `v != 0` is proven by branch refinement; r/(v+1) can wrap to
  // zero and stays guarded.
  EXPECT_EQ(analysis.proven_div_sites, 2u);
  EXPECT_EQ(analysis.guarded_div_sites, 1u);
  EXPECT_GE(analysis.proven_subscript_sites, 1u);
  EXPECT_EQ(analysis.guarded_subscript_sites, 0u);
}

TEST(AbstractInterp, ProvesWcetForStraightLineHandlers) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
int32_t r;
event init():
    r = 2 + 3;
event destroy():
    r = 0;
event write(int32_t v):
    while v != 0:
        r += 1;
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<DecodedImage> decoded = DecodedImage::Decode(*image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  bool saw_init = false, saw_write = false;
  for (const HandlerWcet& wcet : decoded->analysis().wcet) {
    if (wcet.event == kEventInit) {
      saw_init = true;
      EXPECT_TRUE(wcet.bounded);
      EXPECT_GT(wcet.instructions, 0u);
      EXPECT_LE(wcet.instructions, kVmWatchdogInstructions);
      EXPECT_GT(wcet.cycles, wcet.instructions);  // every op costs > 1 cycle
    }
    if (wcet.event == kEventWrite) {
      // The argument-controlled loop is feasible and unbounded.
      saw_write = true;
      EXPECT_FALSE(wcet.bounded);
    }
  }
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_write);
}

TEST(AbstractInterp, BundledDriversAllPassWithProvenSites) {
  for (const BundledDriver& d : BundledDrivers()) {
    Result<DriverImage> image = CompileDriver(d.source);
    ASSERT_TRUE(image.ok()) << d.name;
    Result<DecodedImage> decoded = DecodedImage::Decode(*image);
    ASSERT_TRUE(decoded.ok()) << d.name << ": " << decoded.status().ToString();
    const ImageAnalysis& analysis = decoded->analysis();
    EXPECT_FALSE(analysis.has_errors()) << d.name;
    // The bundled drivers are lint-clean: not even warnings (the compiler no
    // longer emits dead code after terminating `return` statements).
    EXPECT_TRUE(analysis.findings.empty())
        << d.name << ": " << (analysis.findings.empty()
                                  ? ""
                                  : analysis.findings.front().message);
    // Every handler got a WCET verdict.
    EXPECT_EQ(analysis.wcet.size(), decoded->handlers().size()) << d.name;
  }
}

// Regression: a handler body ending in `return` used to get an unreachable
// implicit kRet appended; an if-branch ending in `return` used to emit an
// unreachable jump over the remaining branches.  Both are warnings the
// analyzer reports, so "no findings" is the regression assertion.
TEST(AbstractInterp, CompilerEmitsNoDeadCodeAfterReturns) {
  constexpr const char* kSource = R"(
device 1;
int32_t mode;
event init():
    mode = 1;
event destroy():
    mode = 0;
event write(int32_t v):
    if v == 0:
        return 1;
    elif v == 1:
        mode = 2;
    else:
        return mode;
    return v * 2;
event read():
    return mode + 1;
)";
  Result<DriverImage> image = CompileDriver(kSource);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  Result<DecodedImage> decoded = DecodedImage::Decode(*image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const ImageAnalysis& analysis = decoded->analysis();
  for (const Finding& f : analysis.findings) {
    EXPECT_NE(f.kind, FindingKind::kUnreachableCode)
        << f.message << " at pc " << f.pc;
  }
}

// ------------------------------------------------------- differential -------

// Recording host so the differential covers signal traffic too.
class RecordingHost : public VmHost {
 public:
  void OnSelfSignal(const Event& e) override { self_signals_.push_back(e.id); }
  void OnLibSignal(LibraryId lib, LibraryFunctionId fn,
                   std::span<const int32_t> args) override {
    lib_calls_.push_back(static_cast<int32_t>(lib) * 1000 + fn +
                         (args.empty() ? 0 : args[0]));
  }
  std::vector<EventId> self_signals_;
  std::vector<int32_t> lib_calls_;
};

// The dispatch loop against the seed interpreter on a driver with proven
// sites (the constant divisor, the loop subscripts) and a guarded divisor
// that traps for v = -1.
TEST(AbstractInterp, DispatchMatchesSeedInterpreterAcrossTrapSites) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
int32_t sum, i;
uint8_t buf[8];
event init():
    sum = 0;
    i = 0;
    while i < 8:
        buf[i] = i * 3;
        i += 1;
event destroy():
    sum = 0;
event write(int32_t v):
    sum = 0;
    i = 0;
    while i < 8:
        sum += buf[i] / 3;
        i += 1;
    sum = sum / (v + 1);
event read():
    return sum;
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  Result<std::shared_ptr<const DecodedImage>> decoded = DecodedImage::DecodeShared(*image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_GT((*decoded)->analysis().proven_div_sites, 0u);
  ASSERT_GT((*decoded)->analysis().guarded_div_sites, 0u);

  Vm fast(*decoded);
  ReferenceVm slow(*image);
  RecordingHost fast_host, slow_host;
  // A mix of safe dispatches and one that traps at the guarded site
  // (v = -1 makes the divisor v + 1 zero): accounting must match bit for bit
  // on every path, including the trapping one.
  const std::vector<Event> events = {Event::Of(kEventInit),      Event::Of(kEventWrite, 3),
                                     Event::Of(kEventRead),      Event::Of(kEventWrite, -7),
                                     Event::Of(kEventRead),      Event::Of(kEventWrite, -1),
                                     Event::Of(kEventRead),      Event::Of(kEventDestroy)};
  for (const Event& event : events) {
    Vm::ExecResult a = fast.Dispatch(event, &fast_host);
    Vm::ExecResult b = slow.Dispatch(event, &slow_host);
    EXPECT_EQ(a.outcome, b.outcome) << "event " << int(event.id);
    EXPECT_EQ(a.value, b.value) << "event " << int(event.id);
    EXPECT_EQ(a.instructions, b.instructions) << "event " << int(event.id);
    EXPECT_EQ(a.cycles, b.cycles) << "event " << int(event.id);
    EXPECT_EQ(a.trap.ok(), b.trap.ok()) << "event " << int(event.id);
  }
  EXPECT_EQ(fast.total_instructions(), slow.total_instructions());
  EXPECT_EQ(fast.total_cycles(), slow.total_cycles());
  for (size_t g = 0; g < image->scalar_types.size(); ++g) {
    EXPECT_EQ(fast.global(g), slow.global(g)) << "global " << g;
  }
  EXPECT_EQ(fast_host.self_signals_, slow_host.self_signals_);
  EXPECT_EQ(fast_host.lib_calls_, slow_host.lib_calls_);
}

}  // namespace
}  // namespace micropnp

// Tests for the μPnP driver DSL toolchain: lexer, parser, compiler, driver
// image format, disassembler, and the bundled driver sources.

#include <gtest/gtest.h>

#include "bench/paper/sloc.h"
#include "src/core/driver_sources.h"
#include "src/periph/peripheral.h"
#include "src/dsl/bytecode.h"
#include "src/dsl/compiler.h"
#include "src/dsl/lexer.h"
#include "src/dsl/parser.h"

namespace micropnp {
namespace {

// A minimal valid driver scaffold used by many tests.
constexpr const char* kMinimalDriver = R"(
device 0x11223344;
import adc;

event init():
    signal adc.init(ADC_REF_VDD, ADC_RES_10BIT);

event destroy():
    signal adc.reset();
)";

// ---------------------------------------------------------------- lexer ----

TEST(Lexer, TokenizesListingOneFragment) {
  Result<std::vector<Token>> tokens = Tokenize("uint8_t idx, rfid[12];\n");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 8u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kTypeUint8);
  EXPECT_EQ((*tokens)[1].text, "idx");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kComma);
  EXPECT_EQ((*tokens)[3].text, "rfid");
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kLBracket);
  EXPECT_EQ((*tokens)[5].int_value, 12);
}

TEST(Lexer, HexAndCharLiterals) {
  Result<std::vector<Token>> tokens = Tokenize("0x0d 'A' '\\n'\n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 0x0d);
  EXPECT_EQ((*tokens)[1].int_value, 'A');
  EXPECT_EQ((*tokens)[2].int_value, '\n');
}

TEST(Lexer, IndentationProducesIndentDedent) {
  Result<std::vector<Token>> tokens = Tokenize(
      "event init():\n"
      "    idx = 0;\n"
      "idx = 1;\n");
  ASSERT_TRUE(tokens.ok());
  int indents = 0, dedents = 0;
  for (const Token& t : *tokens) {
    indents += (t.kind == TokenKind::kIndent);
    dedents += (t.kind == TokenKind::kDedent);
  }
  EXPECT_EQ(indents, 1);
  EXPECT_EQ(dedents, 1);
}

TEST(Lexer, CommentsAndBlankLinesIgnored) {
  Result<std::vector<Token>> tokens = Tokenize(
      "# a comment line\n"
      "\n"
      "   \n"
      "idx = 0;  # trailing\n");
  ASSERT_TRUE(tokens.ok());
  // identifier, '=', 0, ';', eof
  EXPECT_EQ(tokens->size(), 5u);
}

TEST(Lexer, ReportsErrorsWithLineNumbers) {
  Result<std::vector<Token>> tokens = Tokenize("ok = 1;\nbad = $;\n");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("line 2"), std::string::npos);
}

TEST(Lexer, RejectsOverflowingLiterals) {
  EXPECT_FALSE(Tokenize("x = 4294967296;\n").ok());     // 2^32
  EXPECT_FALSE(Tokenize("x = 0x1ffffffff;\n").ok());
  EXPECT_TRUE(Tokenize("x = 0xffffffff;\n").ok());      // 2^32-1 fits
}

TEST(Lexer, TwoCharacterOperators) {
  Result<std::vector<Token>> tokens = Tokenize("a == b != c <= d >= e << f >> g && h || i\n");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) {
    if (t.kind != TokenKind::kIdentifier && t.kind != TokenKind::kEndOfFile) {
      kinds.push_back(t.kind);
    }
  }
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{TokenKind::kEq, TokenKind::kNe, TokenKind::kLe, TokenKind::kGe,
                                    TokenKind::kShl, TokenKind::kShr, TokenKind::kAnd,
                                    TokenKind::kOr}));
}

// --------------------------------------------------------------- parser ----

TEST(Parser, ParsesDeclarationsAndHandlers) {
  Result<DriverAst> ast = ParseDriver(R"(
device 0xad1c0001;
import uart;
const LIMIT = 10 + 2;
uint8_t idx, rfid[12];
bool busy;

event init():
    idx = 0;

event destroy():
    busy = false;
)");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  EXPECT_TRUE(ast->has_device_id);
  EXPECT_EQ(ast->device_id, 0xad1c0001u);
  ASSERT_EQ(ast->imports.size(), 1u);
  EXPECT_EQ(ast->imports[0], "uart");
  ASSERT_EQ(ast->consts.size(), 1u);
  EXPECT_EQ(ast->consts[0].value, 12);
  ASSERT_EQ(ast->vars.size(), 3u);
  EXPECT_EQ(ast->vars[1].array_size, 12);
  ASSERT_EQ(ast->handlers.size(), 2u);
}

TEST(Parser, ParsesIfElifElseAndWhile) {
  Result<DriverAst> ast = ParseDriver(R"(
device 1;
uint8_t x;
event init():
    if x == 1:
        x = 2;
    elif x == 2:
        x = 3;
    else:
        while x < 10:
            x += 1;
event destroy():
    x = 0;
)");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const Handler& init = ast->handlers[0];
  ASSERT_EQ(init.body.size(), 1u);
  const Stmt& if_stmt = *init.body[0];
  EXPECT_EQ(if_stmt.kind, Stmt::Kind::kIf);
  EXPECT_EQ(if_stmt.branches.size(), 2u);
  ASSERT_EQ(if_stmt.else_body.size(), 1u);
  EXPECT_EQ(if_stmt.else_body[0]->kind, Stmt::Kind::kWhile);
}

TEST(Parser, ParsesSignalTargets) {
  Result<DriverAst> ast = ParseDriver(R"(
device 1;
import uart;
event init():
    signal uart.init(9600, 0, 1, 8);
event destroy():
    signal this.init();
)");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const Stmt& lib_signal = *ast->handlers[0].body[0];
  EXPECT_FALSE(lib_signal.signal_this);
  EXPECT_EQ(lib_signal.signal_target, "uart");
  EXPECT_EQ(lib_signal.args.size(), 4u);
  const Stmt& self_signal = *ast->handlers[1].body[0];
  EXPECT_TRUE(self_signal.signal_this);
  EXPECT_EQ(self_signal.signal_name, "init");
}

TEST(Parser, OperatorPrecedence) {
  Result<DriverAst> ast = ParseDriver(R"(
device 1;
int32_t r;
event init():
    r = 2 + 3 * 4;
event destroy():
    r = 0;
)");
  ASSERT_TRUE(ast.ok());
  const Stmt& assign = *ast->handlers[0].body[0];
  // Must parse as 2 + (3*4): top node is kAdd.
  ASSERT_EQ(assign.value->kind, Expr::Kind::kBinary);
  EXPECT_EQ(assign.value->bin_op, BinOp::kAdd);
  EXPECT_EQ(assign.value->rhs->bin_op, BinOp::kMul);
}

TEST(Parser, PostIncrementInArrayIndex) {
  Result<DriverAst> ast = ParseDriver(R"(
device 1;
uint8_t idx, buf[4];
event init():
    buf[idx++] = 7;
event destroy():
    idx = 0;
)");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const Stmt& assign = *ast->handlers[0].body[0];
  ASSERT_NE(assign.index, nullptr);
  EXPECT_EQ(assign.index->kind, Expr::Kind::kPostIncDec);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  Result<DriverAst> ast = ParseDriver("device 1;\nevent init(:\n");
  ASSERT_FALSE(ast.ok());
  EXPECT_NE(ast.status().message().find("line 2"), std::string::npos);
}

TEST(Parser, RejectsDuplicateDevice) {
  EXPECT_FALSE(ParseDriver("device 1;\ndevice 2;\n").ok());
}

// ------------------------------------------------------------- compiler ----

TEST(Compiler, CompilesMinimalDriver) {
  Result<DriverImage> image = CompileDriver(kMinimalDriver);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image->device_id, 0x11223344u);
  ASSERT_EQ(image->imports.size(), 1u);
  EXPECT_EQ(image->imports[0], kLibAdc);
  EXPECT_NE(image->FindHandler(kEventInit), nullptr);
  EXPECT_NE(image->FindHandler(kEventDestroy), nullptr);
  EXPECT_EQ(image->FindHandler(kEventRead), nullptr);
}

TEST(Compiler, RequiresDeviceDeclaration) {
  Result<DriverImage> image = CompileDriver("event init():\n    x = 0;\n");
  EXPECT_FALSE(image.ok());
}

TEST(Compiler, RequiresInitAndDestroy) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
uint8_t x;
event init():
    x = 0;
)");
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("destroy"), std::string::npos);
}

TEST(Compiler, RejectsUnknownImport) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
import pcie;
event init():
    signal pcie.init();
event destroy():
    signal pcie.reset();
)");
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("pcie"), std::string::npos);
}

TEST(Compiler, RejectsUndeclaredVariable) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
event init():
    missing = 3;
event destroy():
    missing = 0;
)");
  EXPECT_FALSE(image.ok());
}

TEST(Compiler, RejectsArityMismatch) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
import adc;
event init():
    signal adc.init(1);
event destroy():
    signal adc.reset();
)");
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("2 argument"), std::string::npos);
}

TEST(Compiler, RejectsSignalToMissingHandler) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
uint8_t x;
event init():
    signal this.helper();
event destroy():
    x = 0;
)");
  EXPECT_FALSE(image.ok());
}

TEST(Compiler, RejectsWrongArgcOnWellKnownEvent) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
uint8_t x;
event init(int32_t nope):
    x = 0;
event destroy():
    x = 0;
)");
  EXPECT_FALSE(image.ok());
}

TEST(Compiler, ErrorHandlersRequireErrorKeyword) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
uint8_t x;
event init():
    x = 0;
event destroy():
    x = 0;
event timeOut():
    x = 1;
)");
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("error"), std::string::npos);
}

TEST(Compiler, CustomEventsGetCustomIds) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
uint8_t x;
event init():
    signal this.helper();
event destroy():
    x = 0;
event helper():
    x = 1;
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const HandlerEntry* helper = image->FindHandler(kEventCustomBase);
  ASSERT_NE(helper, nullptr);
  EXPECT_EQ(helper->argc, 0);
}

TEST(Compiler, LibraryConstantsResolve) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
import uart;
event init():
    signal uart.init(USART_BAUD_9600, USART_PARITY_NONE, USART_STOP_BITS_1, USART_DATA_BITS_8);
event destroy():
    signal uart.reset();
)");
  ASSERT_TRUE(image.ok()) << image.status().ToString();
}

TEST(Compiler, ArraysMustBeByteSized) {
  Result<DriverImage> image = CompileDriver(R"(
device 1;
int32_t big[4];
event init():
    big[0] = 1;
event destroy():
    big[0] = 0;
)");
  ASSERT_FALSE(image.ok());
  EXPECT_NE(image.status().message().find("uint8_t or char"), std::string::npos);
}

// -------------------------------------------------------------- image ------

TEST(DriverImage, SerializeParseRoundTrip) {
  Result<DriverImage> image = CompileDriver(kMinimalDriver);
  ASSERT_TRUE(image.ok());
  std::vector<uint8_t> bytes = image->Serialize();
  EXPECT_EQ(bytes.size(), image->SerializedSize());

  Result<DriverImage> parsed = DriverImage::Parse(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, *image);
}

TEST(DriverImage, ParseRejectsCorruption) {
  Result<DriverImage> image = CompileDriver(kMinimalDriver);
  ASSERT_TRUE(image.ok());
  std::vector<uint8_t> bytes = image->Serialize();
  bytes[bytes.size() / 2] ^= 0xff;
  Result<DriverImage> parsed = DriverImage::Parse(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorrupt);
}

TEST(DriverImage, ParseRejectsBadMagicAndShortInput) {
  std::vector<uint8_t> junk = {1, 2, 3};
  EXPECT_FALSE(DriverImage::Parse(ByteSpan(junk.data(), junk.size())).ok());
}

// --------------------------------------------------------------- disasm ----

TEST(Disassemble, RendersInstructions) {
  Result<DriverImage> image = CompileDriver(kMinimalDriver);
  ASSERT_TRUE(image.ok());
  std::string listing = Disassemble(ByteSpan(image->code.data(), image->code.size()));
  EXPECT_NE(listing.find("signal.lib"), std::string::npos);
  EXPECT_NE(listing.find("ret"), std::string::npos);
}

TEST(Bytecode, OperandSizesConsistent) {
  EXPECT_EQ(OpOperandBytes(Op::kPush0), 0);
  EXPECT_EQ(OpOperandBytes(Op::kPushI16), 2);
  EXPECT_EQ(OpOperandBytes(Op::kPushI32), 4);
  EXPECT_EQ(OpOperandBytes(Op::kSignalLib), 2);
  EXPECT_EQ(OpOperandBytes(static_cast<Op>(0xfe)), -1);
}

TEST(Bytecode, CycleCostsMatchPaperStackOperations) {
  // Section 6.2: push() 11.1 us, pop() 8.9 us at 16 MHz -> 178 / 142 cycles.
  // push.0 = dispatch + push; pop = dispatch + pop; their difference is the
  // push/pop cost difference.
  const uint32_t push_cost = OpCycleCost(Op::kPush0);
  const uint32_t pop_cost = OpCycleCost(Op::kPop);
  EXPECT_EQ(push_cost - pop_cost, 178u - 142u);
}

// ------------------------------------------------------ bundled drivers ----

class BundledDriverTest : public ::testing::TestWithParam<BundledDriver> {};

TEST_P(BundledDriverTest, CompilesAndMatchesMetadata) {
  const BundledDriver& driver = GetParam();
  Result<DriverImage> image = CompileDriver(driver.source);
  ASSERT_TRUE(image.ok()) << driver.name << ": " << image.status().ToString();
  EXPECT_EQ(image->device_id, driver.device_id);
  EXPECT_NE(image->FindHandler(kEventInit), nullptr);
  EXPECT_NE(image->FindHandler(kEventDestroy), nullptr);
  // Table 3's claim: μPnP drivers are compact.  Every bundled driver's image
  // fits in a single 6LoWPAN-fragmented UDP transfer (< 1 KiB).
  EXPECT_LT(image->SerializedSize(), 1024u);
}

TEST_P(BundledDriverTest, ImageRoundTripsOverTheWire) {
  const BundledDriver& driver = GetParam();
  Result<DriverImage> image = CompileDriver(driver.source);
  ASSERT_TRUE(image.ok());
  std::vector<uint8_t> wire = image->Serialize();
  Result<DriverImage> parsed = DriverImage::Parse(ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, *image);
}

INSTANTIATE_TEST_SUITE_P(AllBundled, BundledDriverTest,
                         ::testing::ValuesIn(BundledDrivers().begin(), BundledDrivers().end()),
                         [](const ::testing::TestParamInfo<BundledDriver>& param_info) {
                           std::string name = param_info.param.name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(BundledDrivers, SensorDriversAreLeanerThanNativeOnes) {
  // Table 3 shape check at the source level: the ID-20LA DSL driver of the
  // paper is 43 SLoC; ours should be in that ballpark.
  const BundledDriver* id20la = FindBundledDriver(kId20LaTypeId);
  ASSERT_NE(id20la, nullptr);
  const int sloc = CountSloc(id20la->source, SlocLanguage::kMicroPnpDsl);
  EXPECT_GE(sloc, 20);
  EXPECT_LE(sloc, 50);
}

}  // namespace
}  // namespace micropnp

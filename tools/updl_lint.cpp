// updl_lint: compile μPnP DSL drivers and run the full deploy-time analysis
// pipeline over them — structural verification (src/rt/decoded_image.cpp)
// plus abstract interpretation (src/rt/abstract_interp.h) — reporting every
// finding with its severity, bytecode pc and source line.
//
// Usage:  updl_lint [--check] [--quiet] driver.updl...
//
//   --check   exit 1 when any driver has error-severity findings (or fails
//             to compile/verify); the CI gate over drivers/*.updl
//   --quiet   suppress per-handler WCET and proof-census summaries
//
// Exit codes: 0 = success, 1 = a file could not be read/compiled/verified or
// (with --check) error-severity findings were reported, 2 = bad command line.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/dsl/compiler.h"
#include "src/rt/abstract_interp.h"
#include "src/rt/decoded_image.h"

namespace micropnp {
namespace {

struct Options {
  bool check = false;
  bool quiet = false;
  std::vector<std::string> files;
};

enum class LintResult {
  kClean,    // deployable, possibly with warnings/notes
  kFindings, // analysis produced error-severity findings
  kFatal,    // file unreadable, compile error, or structural verify failure
};

LintResult LintFile(const std::string& path, const Options& opts) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "%s: error: cannot open file\n", path.c_str());
    return LintResult::kFatal;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  Result<CompiledDriver> compiled = CompileDriverWithDebugInfo(buffer.str());
  if (!compiled.ok()) {
    // Compiler errors already carry "line N:" prefixes.
    std::fprintf(stderr, "%s: error: %s\n", path.c_str(),
                 compiled.status().message().c_str());
    return LintResult::kFatal;
  }

  // reject_unsafe off: report every finding instead of stopping at the
  // Status for the first error, exactly like a compiler's error list.
  Result<DecodedImage> decoded = DecodedImage::Decode(
      compiled->image, std::nullopt, DecodeOptions{.reject_unsafe = false});
  if (!decoded.ok()) {
    // Structural verification failure (no analysis to report from).
    std::fprintf(stderr, "%s: error: %s\n", path.c_str(),
                 decoded.status().message().c_str());
    return LintResult::kFatal;
  }

  const ImageAnalysis& analysis = decoded->analysis();
  for (const Finding& f : analysis.findings) {
    const int line = compiled->debug.LineFor(f.pc);
    std::printf("%s:%d: %s: %s: %s [pc %u]\n", path.c_str(), line,
                FindingSeverityName(f.severity), FindingKindName(f.kind),
                f.message.c_str(), f.pc);
  }

  if (!opts.quiet) {
    for (const HandlerWcet& wcet : analysis.wcet) {
      const DecodedHandler* handler = decoded->FindHandler(wcet.event);
      const uint32_t max_stack = handler != nullptr ? handler->max_stack : 0;
      if (wcet.bounded) {
        std::printf("%s: handler 0x%02x: wcet %llu instr / %llu cycles, stack %u\n",
                    path.c_str(), wcet.event,
                    static_cast<unsigned long long>(wcet.instructions),
                    static_cast<unsigned long long>(wcet.cycles), max_stack);
      } else {
        std::printf("%s: handler 0x%02x: wcet unbounded (loop), stack %u\n", path.c_str(),
                    wcet.event, max_stack);
      }
    }
    std::printf("%s: trap sites: %zu/%zu divisions proven, %zu/%zu subscripts proven\n",
                path.c_str(), analysis.proven_div_sites,
                analysis.proven_div_sites + analysis.guarded_div_sites,
                analysis.proven_subscript_sites,
                analysis.proven_subscript_sites + analysis.guarded_subscript_sites);
  }

  return analysis.has_errors() ? LintResult::kFindings : LintResult::kClean;
}

}  // namespace
}  // namespace micropnp

int main(int argc, char** argv) {
  micropnp::Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      opts.check = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      opts.quiet = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: updl_lint [--check] [--quiet] driver.updl...\n");
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "updl_lint: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      opts.files.push_back(argv[i]);
    }
  }
  if (opts.files.empty()) {
    std::fprintf(stderr, "usage: updl_lint [--check] [--quiet] driver.updl...\n");
    return 2;
  }

  bool fatal = false;
  bool findings = false;
  for (const std::string& file : opts.files) {
    switch (micropnp::LintFile(file, opts)) {
      case micropnp::LintResult::kClean:
        break;
      case micropnp::LintResult::kFindings:
        findings = true;
        break;
      case micropnp::LintResult::kFatal:
        fatal = true;
        break;
    }
  }
  // Without --check, findings are informational; a file that failed to open,
  // compile, or verify is always an error.
  if (fatal) return 1;
  return (opts.check && findings) ? 1 : 0;
}

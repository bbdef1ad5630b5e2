// Source-lines-of-code counting, used to reproduce Table 3 ("Development
// efforts and memory footprint of device drivers").
//
// The paper reports SLoC for μPnP DSL drivers and for native C drivers.  We
// count non-blank, non-comment lines, which is the conventional SLoC metric.

#ifndef BENCH_PAPER_SLOC_H_
#define BENCH_PAPER_SLOC_H_

#include <string>
#include <string_view>

namespace micropnp {

enum class SlocLanguage {
  kMicroPnpDsl,  // '#' line comments
  kC,            // '//' line comments and '/* ... */' block comments
};

// Counts source lines of code in `source`: lines that contain at least one
// non-whitespace character that is not part of a comment.
int CountSloc(std::string_view source, SlocLanguage language);

}  // namespace micropnp

#endif  // BENCH_PAPER_SLOC_H_

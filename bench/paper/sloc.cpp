#include "bench/paper/sloc.h"

namespace micropnp {

int CountSloc(std::string_view source, SlocLanguage language) {
  int sloc = 0;
  bool in_block_comment = false;
  size_t pos = 0;
  while (pos <= source.size()) {
    size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = source.size();
    }
    std::string_view line = source.substr(pos, eol - pos);

    bool has_code = false;
    for (size_t i = 0; i < line.size(); ++i) {
      char c = line[i];
      if (in_block_comment) {
        if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      if (language == SlocLanguage::kMicroPnpDsl && c == '#') {
        break;  // rest of line is comment
      }
      if (language == SlocLanguage::kC && c == '/' && i + 1 < line.size()) {
        if (line[i + 1] == '/') {
          break;
        }
        if (line[i + 1] == '*') {
          in_block_comment = true;
          ++i;
          continue;
        }
      }
      if (c != ' ' && c != '\t' && c != '\r') {
        has_code = true;
      }
    }
    if (has_code) {
      ++sloc;
    }
    if (eol == source.size()) {
      break;
    }
    pos = eol + 1;
  }
  return sloc;
}

}  // namespace micropnp

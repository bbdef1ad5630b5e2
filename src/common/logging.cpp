#include "src/common/logging.h"

#include <cstdio>

namespace micropnp {
namespace {

LogLevel g_level = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }
LogLevel GetLogLevel() { return g_level; }

void LogMessage(LogLevel level, const char* tag, const std::string& message) {
  if (level < g_level) {
    return;
  }
  std::fprintf(stderr, "[%s] %s: %s\n", LevelName(level), tag, message.c_str());
}

}  // namespace micropnp

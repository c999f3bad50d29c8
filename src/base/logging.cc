#include "base/logging.h"

#include <cstdlib>
#include <iostream>

namespace avdb {

namespace {
const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}
}  // namespace

LogLevel MinLogLevel() { return LogLevel::kWarning; }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelTag(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= MinLogLevel() || level_ == LogLevel::kFatal) {
    std::cerr << stream_.str() << std::endl;
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace avdb

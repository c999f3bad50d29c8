#ifndef AVDB_BASE_LOGGING_H_
#define AVDB_BASE_LOGGING_H_

#include <sstream>
#include <string>

namespace avdb {

/// Severity of a log record. `kFatal` aborts after emitting the record.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Minimum severity; records below it are dropped. It is kWarning so tests
/// and benches stay quiet unless something is wrong.
LogLevel MinLogLevel();

namespace internal_logging {

/// Accumulates one log record and emits it (to stderr) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the record is below the threshold.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

/// Lets a conditional expression of type void appear on the false branch of
/// `?:` while the streaming chain binds first (& has lower precedence
/// than <<).
class Voidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace avdb

#define AVDB_LOG(level)                                                   \
  (static_cast<int>(::avdb::LogLevel::k##level) <                         \
   static_cast<int>(::avdb::MinLogLevel()))                               \
      ? (void)0                                                           \
      : ::avdb::internal_logging::Voidify() &                             \
            ::avdb::internal_logging::LogMessage(                         \
                ::avdb::LogLevel::k##level, __FILE__, __LINE__)           \
                .stream()

/// Always-on invariant check; aborts with a message when `cond` is false.
/// Used for programmer errors only — recoverable failures return Status.
#define AVDB_CHECK(cond)                                                  \
  (cond) ? (void)0                                                        \
         : ::avdb::internal_logging::Voidify() &                          \
               ::avdb::internal_logging::LogMessage(                      \
                   ::avdb::LogLevel::kFatal, __FILE__, __LINE__)          \
                   .stream()                                              \
                   << "Check failed: " #cond " "

#define AVDB_DCHECK(cond) AVDB_CHECK(cond)

/// Aborts (with the expression text) unless `expr` — a Status or Result
/// expression — is OK. For bench/example/test *setup* steps whose failure
/// would silently invalidate everything measured afterwards. Library code
/// returns Status instead; deliberate discards go through
/// AVDB_IGNORE_STATUS (base/status.h).
#define AVDB_MUST(expr) AVDB_CHECK((expr).ok()) << #expr

#endif  // AVDB_BASE_LOGGING_H_

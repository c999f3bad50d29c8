#ifndef AVDB_BASE_STATUS_H_
#define AVDB_BASE_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace avdb {

/// Outcome category for an operation. Mirrors the error taxonomy used by
/// storage engines (RocksDB/Arrow style): a small closed set of codes plus a
/// free-form message.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed a malformed or out-of-domain value.
  kNotFound,          ///< Named entity (object, class, device...) is absent.
  kAlreadyExists,     ///< Unique name or id collision.
  kFailedPrecondition,///< Object is in the wrong state for the request.
  kResourceExhausted, ///< Admission control or allocator refused the request.
  kUnavailable,       ///< Device or channel is busy / exclusively held.
  kDeadlineExceeded,  ///< Operation (with retries) blew its time budget.
  kDataLoss,          ///< Stored bytes failed validation.
  kUnimplemented,     ///< Declared but not supported by this component.
  kInternal,          ///< Invariant violation inside the library.
};

/// Short stable name for a status code, e.g. "InvalidArgument".
std::string_view StatusCodeName(StatusCode code);

/// Result of an operation that can fail. `Status` is cheap to copy for the
/// OK case and carries a message for errors. The library never throws;
/// every fallible public API returns `Status` or `Result<T>`.
///
/// The class is [[nodiscard]]: ignoring a returned Status is a compile
/// error (with AVDB_WERROR, the default). A deliberately ignored status —
/// best-effort cleanup, logging-only paths — must be consumed through
/// AVDB_IGNORE_STATUS with a justification the reader can audit.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

namespace internal_status {
/// Sink for AVDB_IGNORE_STATUS. A function call (not a void cast) so the
/// discard survives macro hygiene and shows up in searches.
inline void IgnoreStatus(const Status&) {}
}  // namespace internal_status

}  // namespace avdb

/// Explicitly discards a Status with a reviewer-facing justification:
///   AVDB_IGNORE_STATUS(store.Flush(), "best-effort flush on shutdown");
/// The justification must be a non-empty string literal; avdb-analyze's
/// `void-cast-call` rule flags bare (void)-casts of fallible calls so this
/// stays the only escape hatch.
#define AVDB_IGNORE_STATUS(expr, justification)             \
  do {                                                      \
    static_assert(sizeof(justification) > 1,                \
                  "AVDB_IGNORE_STATUS needs a reason");     \
    ::avdb::internal_status::IgnoreStatus((expr));          \
  } while (false)

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is not OK.
#define AVDB_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::avdb::Status _avdb_status = (expr);            \
    if (!_avdb_status.ok()) return _avdb_status;     \
  } while (false)

#endif  // AVDB_BASE_STATUS_H_

#ifndef TSG_BASE_STATUS_H_
#define TSG_BASE_STATUS_H_

#include <string>
#include <utility>

#include "base/check.h"

namespace tsg {

/// Error categories for recoverable failures (I/O, malformed input, bad config).
/// Programming-contract violations use TSG_CHECK instead and abort.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kFailedPrecondition,
  kInternal,
  /// Data-dependent numerical failure: a diverged training loss, a non-finite
  /// gradient, or a measure that produced NaN/Inf. Recoverable — a bench grid
  /// records the cell as failed and keeps going.
  kNumericalError,
};

/// A lightweight, exception-free error carrier in the style of RocksDB's Status /
/// absl::Status. Functions that can fail for recoverable reasons return Status (or
/// StatusOr<T>); success is the default-constructed OK value.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NumericalError(std::string msg) {
    return Status(StatusCode::kNumericalError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" form for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Minimal StatusOr: either an OK status with a value, or a non-OK status.
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or a Status keeps call sites terse
  /// (`return value;` / `return Status::IoError(...);`), matching absl::StatusOr.
  StatusOr(T value) : status_(Status::Ok()), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {}                // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// The value; aborts with the status when there is none — check ok() first.
  const T& value() const& {
    CheckHasValue();
    return value_;
  }
  T& value() & {
    CheckHasValue();
    return value_;
  }
  T&& value() && {
    CheckHasValue();
    return std::move(value_);
  }

 private:
  void CheckHasValue() const {
    TSG_CHECK(status_.ok()) << "StatusOr::value() on " << status_.ToString();
  }

  Status status_;
  T value_{};
};

}  // namespace tsg

/// Propagates a non-OK Status out of the enclosing Status-returning function.
#define TSG_RETURN_IF_ERROR(expr)                        \
  do {                                                   \
    ::tsg::Status tsg_status_macro_ = (expr);            \
    if (!tsg_status_macro_.ok()) return tsg_status_macro_; \
  } while (0)

#define TSG_STATUS_CONCAT_INNER_(a, b) a##b
#define TSG_STATUS_CONCAT_(a, b) TSG_STATUS_CONCAT_INNER_(a, b)

/// Evaluates a StatusOr expression; on success assigns the value to `lhs`
/// (which may include a declaration), otherwise returns the error Status.
#define TSG_ASSIGN_OR_RETURN(lhs, expr)                                      \
  TSG_ASSIGN_OR_RETURN_IMPL_(TSG_STATUS_CONCAT_(tsg_statusor_, __LINE__), lhs, expr)
#define TSG_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#endif  // TSG_BASE_STATUS_H_

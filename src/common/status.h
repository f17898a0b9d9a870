#ifndef TASQ_COMMON_STATUS_H_
#define TASQ_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

/// Marks a function whose return value carries an error signal the caller
/// must consume. Status and Result<T> are also [[nodiscard]] at class
/// level, so dropping one is a compiler warning with or without this
/// macro — and an error in CI, which builds with -Werror
/// (tests/compile_fail proves both spellings). To ignore a result
/// deliberately, write
///
///   (void)DoThing();  // reason the error is safe to ignore
///
/// The reason comment is mandatory (scripts/tasq_check.py arch, rule
/// discard-needs-reason).
#define TASQ_NODISCARD [[nodiscard]]

namespace tasq {

/// Error categories used across the library. Kept deliberately small: most
/// failures in this codebase are caller bugs (invalid arguments) or
/// data-dependent conditions (e.g., fitting a curve to fewer than two
/// points).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kNotFound,
  kOutOfRange,
  kInternal,
};

/// Returns a short human-readable name for `code` (e.g., "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A lightweight success/error result carrying a code and a message.
///
/// TASQ does not use exceptions across API boundaries; fallible operations
/// return `Status` (or `Result<T>` when they also produce a value).
/// Example:
///
///   Status s = DoThing();
///   if (!s.ok()) { log(s.ToString()); return s; }
class TASQ_NODISCARD Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  TASQ_NODISCARD static Status Ok() { return Status(); }
  TASQ_NODISCARD static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  TASQ_NODISCARD static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  TASQ_NODISCARD static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  TASQ_NODISCARD static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  TASQ_NODISCARD static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders the status as "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// The value-or-error return type used by fallible functions that produce a
/// value. Access the value only after checking `ok()`.
///
///   Result<PowerLawFit> fit = FitPowerLaw(points);
///   if (!fit.ok()) return fit.status();
///   Use(fit.value());
template <typename T>
class TASQ_NODISCARD Result {
 public:
  /// Constructs a successful result holding `value`. Implicit so callers
  /// can `return value;` from a Result-returning function.
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design
  Result(T value) : value_(std::move(value)) {}

  /// Constructs a failed result. `status` must not be OK. Implicit so
  /// callers can `return Status::Invalid(...);`.
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design
  Result(Status status) : status_(std::move(status)) {}

  bool ok() const { return status_.ok() && value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  /// Returns the contained value or `fallback` when this result is an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace tasq

#endif  // TASQ_COMMON_STATUS_H_

// Status / Result error-handling primitives, in the style of Apache Arrow and
// RocksDB: fallible operations return a Status (or Result<T>) instead of
// throwing across API boundaries.
#ifndef TC_COMMON_STATUS_H_
#define TC_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace tc {

enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kCorruption,
  kIOError,
  kNotSupported,
  kOutOfRange,
  kInternal,
};

/// Outcome of a fallible operation. Cheap to copy when OK.
class Status {
 public:
  Status() = default;

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
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  /// Same code, message prefixed with `context + ": "` — for threading
  /// location context (a batch offset, a file name) into an error without
  /// losing its code. No-op on OK.
  Status Annotate(const std::string& context) const {
    if (ok()) return *this;
    return Status(code_, context + ": " + msg_);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    static const char* kNames[] = {"OK",           "InvalidArgument", "NotFound",
                                   "AlreadyExists", "Corruption",      "IOError",
                                   "NotSupported",  "OutOfRange",      "Internal"};
    return std::string(kNames[static_cast<int>(code_)]) + ": " + msg_;
  }

 private:
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

/// Either a value of type T or an error Status.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}        // NOLINT implicit
  Result(Status status) : status_(std::move(status)) {  // NOLINT implicit
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }
  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return std::move(*value_); }
  T ValueOrDie() && {
    if (!ok()) {
      std::fprintf(stderr, "Result::ValueOrDie on error: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

// Internal invariant check: aborts with a message. Used for programmer errors,
// never for data-dependent failures (those return Status).
#define TC_CHECK(cond)                                                          \
  do {                                                                          \
    if (!(cond)) {                                                              \
      std::fprintf(stderr, "tc: check failed at %s:%d: %s\n", __FILE__,         \
                   __LINE__, #cond);                                            \
      std::abort();                                                             \
    }                                                                           \
  } while (0)

#define TC_CONCAT_IMPL(a, b) a##b
#define TC_CONCAT(a, b) TC_CONCAT_IMPL(a, b)

#define TC_RETURN_IF_ERROR_IMPL(st, expr) \
  do {                                    \
    ::tc::Status st = (expr);             \
    if (!st.ok()) return st;              \
  } while (0)

// The status local is line-unique so nested uses (e.g. inside a lambda passed
// to the guarded expression) don't shadow under -Wshadow.
#define TC_RETURN_IF_ERROR(expr) \
  TC_RETURN_IF_ERROR_IMPL(TC_CONCAT(_st_, __LINE__), expr)

#define TC_ASSIGN_OR_RETURN_IMPL(var, lhs, expr) \
  auto var = (expr);                             \
  if (!var.ok()) return var.status();            \
  lhs = std::move(var).value();

/// TC_ASSIGN_OR_RETURN(auto x, FallibleExpr()) — binds x or early-returns.
#define TC_ASSIGN_OR_RETURN(lhs, expr) \
  TC_ASSIGN_OR_RETURN_IMPL(TC_CONCAT(_result_, __LINE__), lhs, expr)

}  // namespace tc

#endif  // TC_COMMON_STATUS_H_

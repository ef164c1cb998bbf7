#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace edsim {

/// Machine-readable classification of a structured runtime error.
enum class ErrorKind : std::uint8_t {
  kRequestTimeout,     ///< a queued request starved past its watchdog budget
  kProtocolViolation,  ///< command trace broke a datasheet timing rule
  kReliability,        ///< reliability layer hit an unrecoverable state
  kTraceFormat,        ///< binary trace stream is corrupt or truncated
  kSnapshotFormat,     ///< simulator-state snapshot is corrupt or truncated
  kStoreFormat,        ///< persistent result store is corrupt mid-file
};

inline const char* to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::kRequestTimeout: return "request-timeout";
    case ErrorKind::kProtocolViolation: return "protocol-violation";
    case ErrorKind::kReliability: return "reliability";
    case ErrorKind::kTraceFormat: return "trace-format";
    case ErrorKind::kSnapshotFormat: return "snapshot-format";
    case ErrorKind::kStoreFormat: return "store-format";
  }
  return "?";
}

/// Structured simulation error: carries a kind and the cycle it occurred
/// at, so harnesses can react programmatically (retry, log, degrade)
/// instead of string-matching `what()`.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, std::uint64_t cycle, const std::string& what)
      : std::runtime_error(std::string(to_string(kind)) + " at cycle " +
                           std::to_string(cycle) + ": " + what),
        kind_(kind),
        cycle_(cycle) {}

  ErrorKind kind() const { return kind_; }
  std::uint64_t cycle() const { return cycle_; }

 private:
  ErrorKind kind_;
  std::uint64_t cycle_;
};

/// Thrown when a configuration struct fails validation at construction
/// time. Simulation hot paths never throw; all parameter checking happens
/// up front so that `tick()`-style members can be noexcept.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a simulation object is driven outside its contract
/// (e.g. enqueueing into a full queue that the caller was told to poll).
class UsageError : public std::logic_error {
 public:
  explicit UsageError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_config(const std::string& msg) {
  throw ConfigError(msg);
}
}  // namespace detail

/// Validate a config predicate; throws ConfigError with `msg` on failure.
inline void require(bool ok, const std::string& msg) {
  if (!ok) detail::throw_config(msg);
}
/// Literal-message overload: builds no std::string unless the check
/// fails, so hot paths can call it without allocating.
inline void require(bool ok, const char* msg) {
  if (!ok) detail::throw_config(msg);
}

}  // namespace edsim

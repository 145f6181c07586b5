// Error handling: a library-specific exception type plus a CHECK macro for
// precondition violations. Following the C++ Core Guidelines (E.2, I.5) the
// library reports contract violations by throwing, never by aborting, so
// callers and tests can observe failures.
//
// Every Error carries an ErrorKind so callers can branch on *category*
// (retry an Io failure, quarantine a Corrupt block, shrink on Resource)
// without parsing message strings, and so the tools can map each kind to a
// documented process exit code (docs/ROBUSTNESS.md).
#pragma once

#include <stdexcept>
#include <string>

namespace mublastp {

/// Coarse error categories callers are expected to branch on.
enum class ErrorKind {
  kInvalid,   ///< violated precondition / malformed request (default)
  kIo,        ///< the environment failed us: open/read/stat/mmap/write
  kCorrupt,   ///< data failed validation: bad magic, CRC, torn records
  kResource,  ///< allocation, mapping or budget exhaustion
  kCanceled,  ///< the run was cut short on purpose (budget/interrupt)
};

/// Stable lowercase name of a kind ("invalid", "io", "corrupt", ...).
const char* error_kind_name(ErrorKind kind);

/// Documented process exit code for a kind: invalid=1, io=4, corrupt=5,
/// resource=6, canceled=7. (0 = complete, 2 = usage, 3 = partial results;
/// those are not error kinds — see docs/ROBUSTNESS.md for the full table.)
int exit_code_for(ErrorKind kind);

/// Exception thrown for all muBLASTP error conditions (bad input, violated
/// preconditions, malformed files).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, ErrorKind kind = ErrorKind::kInvalid)
      : std::runtime_error(what), kind_(kind) {}

  ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const char* file,
                                      int line, const std::string& msg,
                                      ErrorKind kind = ErrorKind::kInvalid);
}  // namespace detail

/// Validates a precondition; throws mublastp::Error with location info on
/// failure. Always active (not compiled out in release builds): the checks
/// guard API boundaries, not inner loops. The location is the source file's
/// name without its directory, so a message (and the stats-v1 reason that
/// quotes it) is the same from every checkout.
#define MUBLASTP_CHECK(expr, msg)                                        \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::mublastp::detail::throw_check_failure(#expr, __FILE_NAME__,      \
                                              __LINE__, (msg));          \
    }                                                                    \
  } while (false)

/// Same as MUBLASTP_CHECK but tags the thrown Error with an ErrorKind so
/// callers (and the tools' exit-code mapping) can branch on the category.
#define MUBLASTP_CHECK_KIND(expr, kind, msg)                             \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::mublastp::detail::throw_check_failure(#expr, __FILE_NAME__,      \
                                              __LINE__, (msg), (kind));  \
    }                                                                    \
  } while (false)

}  // namespace mublastp

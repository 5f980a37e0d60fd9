// Runtime invariant checks for the simulator core.
//
// TLS_CHECK(cond, msg...)  — always compiled in; for cheap invariants whose
//   violation means simulation results cannot be trusted (event-time
//   monotonicity, non-negative queue depths). Unlike assert(), it survives
//   NDEBUG builds and prints a formatted message with the failing values.
// TLS_DCHECK(cond, msg...) — compiled in only when TLS_ENABLE_DCHECKS is
//   defined (Debug and sanitizer builds, see the top-level CMakeLists); for
//   costlier audits such as byte-conservation ledgers. In RelWithDebInfo the
//   condition and message are not evaluated, so hot paths pay nothing.
//
// The message arguments are streamed, e.g.:
//   TLS_CHECK(at >= now_, "event scheduled in the past: at=", at,
//             " now=", now_);
// On failure the check prints file:line, the stringified condition, and the
// message to stderr, then aborts (so sanitizers and ctest both see a hard
// failure with a usable stack). The message is built in a cold, never
// inlined lambda, so the function holding the check keeps only a branch
// and a call: no stream object in its frame.
#pragma once

#include <sstream>
#include <string>

namespace tls::sim::internal {

/// Streams all arguments into one string; empty argument list yields "".
template <typename... Args>
std::string format_check_message(const Args&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return {};
  } else {
    std::ostringstream os;
    (os << ... << args);
    return os.str();
  }
}

/// Prints the failure report and aborts.
[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& message);

}  // namespace tls::sim::internal

#define TLS_CHECK(cond, ...)                                                 \
  do {                                                                       \
    if (!(cond)) [[unlikely]] {                                              \
      [&]() __attribute__((noinline, cold, noreturn)) {                      \
        ::tls::sim::internal::check_failed(                                  \
            __FILE__, __LINE__, #cond,                                       \
            ::tls::sim::internal::format_check_message(__VA_ARGS__));        \
      }();                                                                   \
    }                                                                        \
  } while (0)

#ifdef TLS_ENABLE_DCHECKS
#define TLS_DCHECK(cond, ...) TLS_CHECK(cond, __VA_ARGS__)
#else
// Compiles the condition away entirely but keeps it syntactically checked,
// so a DCHECK cannot rot in release builds.
#define TLS_DCHECK(cond, ...)             \
  do {                                    \
    if (false) {                          \
      (void)sizeof(!(cond));              \
    }                                     \
  } while (0)
#endif

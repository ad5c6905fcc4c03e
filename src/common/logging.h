/**
 * @file
 * Logging and error-reporting helpers in the spirit of gem5's
 * base/logging.hh: panic() for internal invariant violations, fatal() for
 * user/configuration errors, warn()/inform() for status messages.
 */

#ifndef RIF_COMMON_LOGGING_H
#define RIF_COMMON_LOGGING_H

#include <cstdlib>
#include <sstream>
#include <string>

namespace rif {

/** Destination-agnostic message sink; tests may capture output. */
namespace log_detail {

/** Emit a formatted log line to stderr. */
void emit(const char *level, const std::string &msg);

/**
 * Print a fatal message, flush stdout and terminate with status 1,
 * skipping static destructors and atexit handlers. fatal() may fire on
 * a worker-pool thread while other workers still run; std::exit would
 * destroy the pool and every other static underneath them. The first
 * caller wins: a later caller, say another worker that hit the same
 * configuration error, blocks until the process is gone, so a failure
 * prints exactly one line.
 */
[[noreturn]] void exitFatal(const std::string &msg);

/** Build a message from stream-style arguments. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace log_detail

/**
 * Report an internal error that should never happen regardless of user
 * input (a genuine bug) and abort, possibly dumping core.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    log_detail::emit("panic", log_detail::format(std::forward<Args>(args)...));
    std::abort();
}

/**
 * Report an unrecoverable condition caused by user input (bad
 * configuration, invalid arguments) and exit with an error code.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    log_detail::exitFatal(log_detail::format(std::forward<Args>(args)...));
}

/** Warn about questionable but non-fatal behaviour. */
template <typename... Args>
void
warn(Args &&...args)
{
    log_detail::emit("warn", log_detail::format(std::forward<Args>(args)...));
}

/** Provide normal operating status to the user. */
template <typename... Args>
void
inform(Args &&...args)
{
    log_detail::emit("info", log_detail::format(std::forward<Args>(args)...));
}

/** panic() unless the given condition holds. */
#define RIF_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::rif::panic("assertion '", #cond, "' failed at ", __FILE__,   \
                         ":", __LINE__, " ", ##__VA_ARGS__);               \
        }                                                                  \
    } while (0)

} // namespace rif

#endif // RIF_COMMON_LOGGING_H

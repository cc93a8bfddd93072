/**
 * @file
 * Logging and error-reporting helpers, modelled on gem5's
 * base/logging.hh conventions.
 *
 * Two classes of error exist:
 *  - panic(): an internal invariant was violated (a bug in this
 *    library). Aborts so a debugger/core dump can capture state.
 *  - fatal(): the simulation cannot continue because of a user error
 *    (bad configuration, invalid arguments). Exits with status 1.
 *
 * Warnings use warn(), which never stops the simulation.
 */

#ifndef GDIFF_UTIL_LOGGING_HH
#define GDIFF_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace gdiff {

/**
 * Report an internal invariant violation and abort().
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user error and exit(1).
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Warn the user that something may not behave as expected.
 * Never terminates the program.
 */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Enable or disable warn() output (panic/fatal always print).
 * Useful for keeping test output quiet.
 *
 * @param quiet true suppresses warn().
 */
void setQuietLogging(bool quiet);

/** @return true if warn() output is currently suppressed. */
bool quietLogging();

/**
 * Format a printf-style message into a std::string.
 *
 * @param fmt printf-style format string.
 * @param ap  variadic argument list.
 * @return the formatted message.
 */
std::string vformatString(const char *fmt, std::va_list ap);

/** Format a printf-style message into a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace gdiff

/**
 * Assert-like macro for simulator invariants: evaluates in all build
 * types (unlike assert) and reports through panic() with location info.
 */
#define GDIFF_ASSERT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::gdiff::panic("assertion '%s' failed at %s:%d: %s", #cond,   \
                           __FILE__, __LINE__,                            \
                           ::gdiff::formatString(__VA_ARGS__).c_str());   \
        }                                                                 \
    } while (0)

#endif // GDIFF_UTIL_LOGGING_HH

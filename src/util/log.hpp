/**
 * @file
 * Minimal logging and error-termination helpers.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (simulator bugs, aborts), fatal() is for user/config
 * errors (clean exit), warn()/inform() are advisory.
 */

#pragma once

#include <sstream>
#include <string>

namespace nvfs::util {

/** Severity of a log message. */
enum class LogLevel { Debug, Info, Warn, Error };

/** Global log threshold; messages below it are suppressed. */
void setLogLevel(LogLevel level);

/** Current log threshold. */
LogLevel logLevel();

/** Emit a message at the given level to stderr. */
void logMessage(LogLevel level, const std::string &message);

/** Advisory message for normal operation. */
void inform(const std::string &message);

/** Something is off but the simulation can continue. */
void warn(const std::string &message);

/**
 * Terminate because of an internal invariant violation (a bug in
 * nvfs itself).  Calls std::abort().
 */
[[noreturn]] void panic(const std::string &message);

/**
 * Terminate because of a user error (bad configuration, bad input
 * file).  Flushes stdio and ends the process with status 1 through
 * std::_Exit, so it is safe from any thread; static destructors and
 * atexit hooks (the NVFS_STATS_OUT export) do not run.
 */
[[noreturn]] void fatal(const std::string &message);

/**
 * Check an internal invariant; panic with the stringified condition on
 * failure.  Unlike assert() this is active in release builds because
 * simulation results silently computed from corrupt state are worse
 * than a crash.
 */
#define NVFS_REQUIRE(cond, msg)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::nvfs::util::panic(std::string("requirement failed: ") +      \
                                #cond + " — " + (msg));                    \
        }                                                                  \
    } while (0)

} // namespace nvfs::util

/**
 * @file
 * One shared parser for the NVFS_* environment knobs.
 *
 * The env variables grew three divergent ad-hoc parsers (NVFS_JOBS,
 * NVFS_SCALE, and the audit knob); each had slightly different ideas
 * about trailing garbage and range errors.  envInt()/envDouble()
 * centralize the policy: a malformed or out-of-range value is a fatal
 * error naming the variable, the offending text, and the accepted
 * range — it never silently becomes 0 the way atoi would, and never
 * runs on with a default the user did not ask for.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace nvfs::util {

/**
 * Strictly parse a base-10 signed integer.  Rejects empty input,
 * trailing garbage ("8x"), partial parses, and out-of-range values.
 */
std::optional<std::int64_t> tryParseInt(const std::string &text);

/** Strictly parse a finite double (whole string, no trailing junk). */
std::optional<double> tryParseDouble(const std::string &text);

/**
 * Integer environment knob.  Unset -> fallback.  Set but malformed or
 * outside [min, max] -> fatal error naming the variable and the
 * accepted range.
 */
std::int64_t envInt(const char *name, std::int64_t fallback,
                    std::int64_t min, std::int64_t max);

/** Double environment knob; accepts finite values in [min, max]. */
double envDouble(const char *name, double fallback, double min,
                 double max);

/** Raw environment lookup (nullptr when unset). */
const char *envRaw(const char *name);

/**
 * Strict positional-argument parse (the examples' argv handling).
 * Malformed or out-of-range text is a fatal error naming the argument
 * and the accepted range: "trace='7x' is not an integer in [1, 8]".
 */
std::int64_t argInt(const char *what, const char *text,
                    std::int64_t min, std::int64_t max);

/** Double flavour of argInt (rejects non-finite values too). */
double argDouble(const char *what, const char *text, double min,
                 double max);

/** Byte-size flavour of argInt: "512K", "4M" as util::parseBytes. */
std::uint64_t argBytes(const char *what, const char *text,
                       std::uint64_t min, std::uint64_t max);

} // namespace nvfs::util

/**
 * @file
 * Human-readable formatting and parsing of byte sizes and durations.
 */

#pragma once

#include <optional>
#include <string>

#include "util/types.hpp"

namespace nvfs::util {

/** "4 KB", "1.50 MB", "512 B" — power-of-two units. */
std::string formatBytes(Bytes bytes);

/** "30 s", "2.5 min", "1.2 h" as appropriate. */
std::string formatDuration(TimeUs us);

/**
 * Parse "512K", "4M", "1.5MB", "4096" (bytes).  Nullopt on malformed,
 * negative or unrepresentable (2^63 bytes or more) input, with the
 * reason in `why`.
 */
std::optional<Bytes> tryParseBytes(const std::string &text,
                                   std::string &why);

/** tryParseBytes, fatal on failure. */
Bytes parseBytes(const std::string &text);

/**
 * Parse "30s", "5min", "2h", "1500ms" into microseconds.
 * Fatal on malformed input.
 */
TimeUs parseDuration(const std::string &text);

} // namespace nvfs::util

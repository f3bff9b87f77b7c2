#include "util/units.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/log.hpp"

namespace nvfs::util {

std::string
formatBytes(Bytes bytes)
{
    char buf[64];
    if (bytes >= kMiB && bytes % kMiB == 0) {
        std::snprintf(buf, sizeof(buf), "%llu MB",
                      static_cast<unsigned long long>(bytes / kMiB));
    } else if (bytes >= kMiB) {
        std::snprintf(buf, sizeof(buf), "%.2f MB", toMiB(bytes));
    } else if (bytes >= kKiB) {
        std::snprintf(buf, sizeof(buf), "%.4g KB",
                      static_cast<double>(bytes) / kKiB);
    } else {
        std::snprintf(buf, sizeof(buf), "%llu B",
                      static_cast<unsigned long long>(bytes));
    }
    return buf;
}

std::string
formatDuration(TimeUs us)
{
    char buf[64];
    const double seconds = static_cast<double>(us) / kUsPerSecond;
    if (seconds >= 3600.0) {
        std::snprintf(buf, sizeof(buf), "%.4g h", seconds / 3600.0);
    } else if (seconds >= 60.0) {
        std::snprintf(buf, sizeof(buf), "%.4g min", seconds / 60.0);
    } else if (seconds >= 1.0) {
        std::snprintf(buf, sizeof(buf), "%.4g s", seconds);
    } else {
        std::snprintf(buf, sizeof(buf), "%.4g ms", seconds * 1000.0);
    }
    return buf;
}

namespace {

// Parses a leading float and returns the suffix start; nullopt, with
// the reason in `why`, when the text starts with no number (or NaN).
std::optional<double>
parseNumber(const std::string &text, std::size_t &pos, std::string &why)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || std::isnan(value)) {
        why = "cannot parse number from '" + text + "'";
        return std::nullopt;
    }
    pos = static_cast<std::size_t>(end - text.c_str());
    return value;
}

std::string
lowerSuffix(const std::string &text, std::size_t pos)
{
    std::string suffix;
    for (; pos < text.size(); ++pos) {
        const char c = text[pos];
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        suffix.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return suffix;
}

} // namespace

std::optional<Bytes>
tryParseBytes(const std::string &text, std::string &why)
{
    std::size_t pos = 0;
    const auto value = parseNumber(text, pos, why);
    if (!value)
        return std::nullopt;
    const std::string suffix = lowerSuffix(text, pos);
    double scale = 1.0;
    if (suffix.empty() || suffix == "b") {
        scale = 1.0;
    } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
        scale = static_cast<double>(kKiB);
    } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
        scale = static_cast<double>(kMiB);
    } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
        scale = static_cast<double>(kMiB) * 1024.0;
    } else {
        why = "unknown byte suffix '" + suffix + "'";
        return std::nullopt;
    }
    const double bytes = *value * scale;
    if (bytes < 0.0) {
        why = "negative byte size '" + text + "'";
        return std::nullopt;
    }
    // llround is defined only below 2^63.
    if (bytes >= 0x1p63) {
        why = "byte size '" + text + "' too large";
        return std::nullopt;
    }
    return static_cast<Bytes>(std::llround(bytes));
}

Bytes
parseBytes(const std::string &text)
{
    std::string why;
    const auto bytes = tryParseBytes(text, why);
    if (!bytes)
        fatal(why);
    return *bytes;
}

TimeUs
parseDuration(const std::string &text)
{
    std::size_t pos = 0;
    std::string why;
    const auto value = parseNumber(text, pos, why);
    if (!value)
        fatal(why);
    const std::string suffix = lowerSuffix(text, pos);
    double scale = static_cast<double>(kUsPerSecond);
    if (suffix.empty() || suffix == "s" || suffix == "sec") {
        scale = static_cast<double>(kUsPerSecond);
    } else if (suffix == "ms") {
        scale = 1000.0;
    } else if (suffix == "us") {
        scale = 1.0;
    } else if (suffix == "min" || suffix == "m") {
        scale = static_cast<double>(kUsPerMinute);
    } else if (suffix == "h" || suffix == "hr") {
        scale = static_cast<double>(kUsPerHour);
    } else {
        fatal("unknown duration suffix '" + suffix + "'");
    }
    return static_cast<TimeUs>(std::llround(*value * scale));
}

} // namespace nvfs::util

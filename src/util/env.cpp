#include "util/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/log.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nvfs::util {

std::optional<std::int64_t>
tryParseInt(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0')
        return std::nullopt;
    return static_cast<std::int64_t>(value);
}

std::optional<double>
tryParseDouble(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0' ||
        !std::isfinite(value)) {
        return std::nullopt;
    }
    return value;
}

const char *
envRaw(const char *name)
{
    return std::getenv(name);
}

std::int64_t
envInt(const char *name, std::int64_t fallback, std::int64_t min,
       std::int64_t max)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr)
        return fallback;
    return argInt(name, raw, min, max);
}

double
envDouble(const char *name, double fallback, double min, double max)
{
    const char *raw = std::getenv(name);
    if (raw == nullptr)
        return fallback;
    return argDouble(name, raw, min, max);
}

std::int64_t
argInt(const char *what, const char *text, std::int64_t min,
       std::int64_t max)
{
    const auto value = tryParseInt(text);
    if (!value || *value < min || *value > max) {
        fatal(format("%s='%s' is not an integer in [%lld, %lld]", what,
                     text, static_cast<long long>(min),
                     static_cast<long long>(max)));
    }
    return *value;
}

double
argDouble(const char *what, const char *text, double min, double max)
{
    const auto value = tryParseDouble(text);
    if (!value || *value < min || *value > max) {
        fatal(format("%s='%s' is not a number in [%g, %g]", what, text,
                     min, max));
    }
    return *value;
}

std::uint64_t
argBytes(const char *what, const char *text, std::uint64_t min,
         std::uint64_t max)
{
    std::string why;
    const auto value = tryParseBytes(text, why);
    if (!value || *value < min || *value > max) {
        const std::string reason = value ? "" : ": " + why;
        fatal(format("%s='%s' is not a byte size in [%llu, %llu]%s", what,
                     text, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max),
                     reason.c_str()));
    }
    return *value;
}

} // namespace nvfs::util

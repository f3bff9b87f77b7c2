#include "util/log.hpp"

#include <cstdio>
#include <cstdlib>

namespace nvfs::util {

namespace {

LogLevel g_level = LogLevel::Info;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

void
logMessage(LogLevel level, const std::string &message)
{
    if (static_cast<int>(level) < static_cast<int>(g_level))
        return;
    std::fprintf(stderr, "[nvfs:%s] %s\n", levelName(level),
                 message.c_str());
}

void
inform(const std::string &message)
{
    logMessage(LogLevel::Info, message);
}

void
warn(const std::string &message)
{
    logMessage(LogLevel::Warn, message);
}

void
panic(const std::string &message)
{
    std::fprintf(stderr, "[nvfs:panic] %s\n", message.c_str());
    std::abort();
}

void
fatal(const std::string &message)
{
    std::fprintf(stderr, "[nvfs:fatal] %s\n", message.c_str());
    // Not exit(): a bad env knob can be read on pool workers (NVFS_AUDIT
    // inside grid replays), and exit() would run static destructors
    // under the other threads, or twice if two workers fail at once.
    std::fflush(nullptr);
    std::_Exit(1);
}

} // namespace nvfs::util

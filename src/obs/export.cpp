#include "obs/export.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace nvfs::obs {

namespace {

/** Escape a string for a JSON literal (names are plain, labels may
 *  carry paths or quotes). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += util::format("\\u%04x",
                                    static_cast<unsigned>(c));
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
u64(std::uint64_t v)
{
    return util::format("%llu",
                        static_cast<unsigned long long>(v));
}

/** Write `content` to `path` via a temp file + atomic rename. */
bool
writeFileAtomic(const std::string &path, const std::string &content,
                const char *what)
{
    const std::string tmp = path + ".tmp";
    std::FILE *fh = std::fopen(tmp.c_str(), "w");
    if (fh == nullptr) {
        util::warn(std::string(what) + ": cannot create " + tmp);
        return false;
    }
    const bool ok =
        std::fwrite(content.data(), 1, content.size(), fh) ==
        content.size();
    const bool closed = std::fclose(fh) == 0;
    if (!ok || !closed) {
        std::remove(tmp.c_str());
        util::warn(std::string(what) + ": short write to " + tmp);
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        util::warn(std::string(what) + ": rename to " + path +
                   " failed");
        return false;
    }
    return true;
}

/** True when the subsystem was compiled in. */
constexpr bool
statsCompiledIn()
{
#ifdef NVFS_NO_STATS
    return false;
#else
    return true;
#endif
}

std::string
kindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter: return "counter";
      case StatKind::Max: return "max";
      case StatKind::Timer: return "timer";
    }
    return "counter";
}

} // namespace

std::string
toJson(const Snapshot &snap)
{
    std::string out = "{\n  \"version\": 1,\n  \"enabled\": ";
    out += statsCompiledIn() ? "true" : "false";
    out += ",\n  \"stats\": {";
    bool first = true;
    for (const StatValue &s : snap.stats) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(s.name) + "\": {\"kind\": \"" +
               kindName(s.kind) + "\", \"count\": " + u64(s.count);
        switch (s.kind) {
          case StatKind::Counter:
            out += ", \"value\": " + u64(s.total);
            break;
          case StatKind::Max:
            out += ", \"value\": " + u64(s.max);
            break;
          case StatKind::Timer:
            out += ", \"total_ns\": " + u64(s.total) +
                   ", \"min_ns\": " + u64(s.min) +
                   ", \"max_ns\": " + u64(s.max);
            break;
        }
        out += "}";
    }
    out += first ? "}\n}\n" : "\n  }\n}\n";
    return out;
}

std::string
renderTable(const Snapshot &snap)
{
    util::TextTable table({"stat", "kind", "count", "value"},
                          {util::Align::Left, util::Align::Left,
                           util::Align::Right, util::Align::Right});
    for (const StatValue &s : snap.stats) {
        std::string value;
        switch (s.kind) {
          case StatKind::Counter:
            value = u64(s.total);
            break;
          case StatKind::Max:
            value = u64(s.max);
            break;
          case StatKind::Timer:
            value = util::format(
                "%.3f ms (min %.3f, max %.3f)",
                static_cast<double>(s.total) / 1e6,
                static_cast<double>(s.min) / 1e6,
                static_cast<double>(s.max) / 1e6);
            break;
        }
        table.addRow({s.name, kindName(s.kind), u64(s.count),
                      std::move(value)});
    }
    if (!statsCompiledIn()) {
        return "observability stats: compiled out "
               "(-DNVFS_NO_STATS)\n";
    }
    return table.render("observability stats");
}

bool
writeStatsFile(const std::string &path)
{
    return writeFileAtomic(path,
                           toJson(Registry::instance().snapshot()),
                           "NVFS_STATS_OUT");
}

std::string
spansToChromeTrace(const std::vector<TraceSpan> &spans)
{
    std::string out =
        "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const TraceSpan &span : spans) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "  {\"name\": \"" + jsonEscape(span.name) +
               "\", \"cat\": \"nvfs\", \"ph\": \"X\", \"ts\": " +
               u64(span.startUs) + ", \"dur\": " + u64(span.durUs) +
               ", \"pid\": 1, \"tid\": " + u64(span.tid);
        if (!span.label.empty())
            out += ", \"args\": {\"label\": \"" +
                   jsonEscape(span.label) + "\"}";
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

bool
writeTraceFile(const std::string &path)
{
    return writeFileAtomic(
        path,
        spansToChromeTrace(Registry::instance().drainSpans()),
        "NVFS_TRACE_OUT");
}

namespace {

/** atexit hook: write whichever export files the env asked for. */
void
exportAtExit()
{
    if (const char *stats = util::envRaw("NVFS_STATS_OUT");
        stats != nullptr && *stats != '\0')
        writeStatsFile(stats);
    if (const char *trace = util::envRaw("NVFS_TRACE_OUT");
        trace != nullptr && *trace != '\0')
        writeTraceFile(trace);
}

} // namespace

void
autoExportFromEnv()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;
    const char *stats = util::envRaw("NVFS_STATS_OUT");
    const char *trace = util::envRaw("NVFS_TRACE_OUT");
    const bool want_stats = stats != nullptr && *stats != '\0';
    const bool want_trace = trace != nullptr && *trace != '\0';
    if (!want_stats && !want_trace)
        return;
    if (want_trace)
        Registry::instance().enableTracing(true);
    std::atexit(exportAtExit);
}

} // namespace nvfs::obs

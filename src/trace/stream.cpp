#include "trace/stream.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <optional>

#include "util/log.hpp"
#include "util/mapped_file.hpp"
#include "util/table.hpp"

namespace nvfs::trace {
namespace {

std::string
withErrno(const std::string &message)
{
    return message + " (" + std::strerror(errno) + ")";
}

} // namespace

void
writeTraceFile(const std::string &path, const TraceBuffer &buffer)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        util::fatal(
            withErrno("cannot open trace file for writing: " + path));
    TraceHeader header = buffer.header;
    header.eventCount = buffer.events.size();
    encodeHeader(header, out);
    for (const Event &event : buffer.events)
        encodeEvent(event, out);
    if (!out)
        util::fatal("I/O error writing trace file: " + path);
}

TraceBuffer
readTraceFile(const std::string &path)
{
    auto map = util::MappedFile::open(path);
    if (!map.has_value())
        util::fatal(withErrno("cannot open trace file: " + path));
    if (map->size() < kTraceHeaderSize)
        util::fatal(util::format(
            "truncated trace header: %s is %zu bytes, need %zu",
            path.c_str(), map->size(), kTraceHeaderSize));
    std::string header_error;
    const auto header = decodeHeaderBytes(map->data(), &header_error);
    if (!header.has_value())
        util::fatal(path + ": " + header_error);

    const std::size_t body = map->size() - kTraceHeaderSize;
    if (body % kRecordSize != 0)
        util::fatal(util::format(
            "truncated trace record: %s has %zu stray bytes after "
            "%zu whole records",
            path.c_str(), body % kRecordSize, body / kRecordSize));
    const std::size_t count = body / kRecordSize;
    if (count != header->eventCount)
        util::fatal(util::format(
            "trace %s: header claims %llu events, found %zu",
            path.c_str(),
            static_cast<unsigned long long>(header->eventCount),
            count));

    TraceBuffer buffer;
    buffer.header = *header;
    buffer.events.resize(count);
    const std::uint8_t *records = map->data() + kTraceHeaderSize;
    for (std::size_t i = 0; i < count; ++i) {
        if (!decodeEventBytes(records + i * kRecordSize,
                              buffer.events[i]))
            util::fatal(util::format(
                "corrupt trace record: bad event type (%s, record %zu)",
                path.c_str(), i));
    }
    return buffer;
}

void
writeTraceText(const std::string &path, const TraceBuffer &buffer)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        util::fatal(
            withErrno("cannot open trace file for writing: " + path));
    out << "# nvfs trace " << buffer.header.traceIndex << " clients="
        << buffer.header.clientCount << " duration="
        << buffer.header.duration << "\n";
    for (const Event &event : buffer.events)
        out << toString(event) << "\n";
    if (!out)
        util::fatal("I/O error writing trace text: " + path);
}

TraceBuffer
readTraceText(const std::string &path)
{
    auto map = util::MappedFile::open(path);
    if (!map.has_value())
        util::fatal(withErrno("cannot open trace file: " + path));
    TraceBuffer buffer;
    const auto *text = reinterpret_cast<const char *>(map->data());
    const std::size_t size = map->size();
    std::size_t line_number = 0;
    for (std::size_t start = 0; start < size;) {
        const char *nl = static_cast<const char *>(
            std::memchr(text + start, '\n', size - start));
        const std::size_t end =
            nl == nullptr ? size : static_cast<std::size_t>(nl - text);
        ++line_number;
        if (start == end || text[start] != '#') {
            try {
                if (const auto event = parseTextEvent(
                        std::string(text + start, end - start)))
                    buffer.events.push_back(*event);
            } catch (const ValidateError &e) {
                util::fatal(path + ":" + std::to_string(line_number) +
                            ": " + e.what());
            }
        }
        start = end + 1;
    }
    buffer.header.eventCount = buffer.events.size();
    return buffer;
}

} // namespace nvfs::trace

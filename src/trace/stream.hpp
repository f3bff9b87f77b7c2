/**
 * @file
 * Trace containers and file-backed readers/writers.
 *
 * TraceBuffer is the in-memory representation used throughout the
 * simulator; TraceFileWriter/TraceFileReader persist it in the binary
 * format so traces can be generated once and replayed by many
 * experiments.
 */

#pragma once

#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/event.hpp"

namespace nvfs::trace {

/** An in-memory trace: header metadata plus its events in time order. */
struct TraceBuffer
{
    TraceHeader header;
    std::vector<Event> events;

    /** Append an event, keeping eventCount in sync. */
    void
    push(const Event &event)
    {
        events.push_back(event);
        header.eventCount = events.size();
    }

    /** Number of events. */
    std::size_t size() const { return events.size(); }
};

/** Write a TraceBuffer to a binary trace file. Fatal on I/O error. */
void writeTraceFile(const std::string &path, const TraceBuffer &buffer);

/**
 * Read a binary trace file fully into memory.  Fatal on error, with
 * the path and errno/record context in the message.  The file is
 * mmapped and its fixed-width records decoded in one forward scan
 * into an event vector sized exactly from the record count.
 */
TraceBuffer readTraceFile(const std::string &path);

/** Write a TraceBuffer as text, one event per line with a header. */
void writeTraceText(const std::string &path, const TraceBuffer &buffer);

/**
 * Read a text trace file (blank lines and '#' comments skipped) in
 * one forward scan of the mmapped file.  Fatal on the first bad line,
 * reporting path:line plus the offending field.
 */
TraceBuffer readTraceText(const std::string &path);

} // namespace nvfs::trace

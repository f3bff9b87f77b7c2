/**
 * @file
 * Binary and text serialization for trace events.
 *
 * The binary format is a magic/version header followed by fixed-width
 * little-endian records; the text format is one whitespace-delimited
 * line per event (the output of toString()).  Both round-trip exactly.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/event.hpp"

namespace nvfs::trace {

/**
 * A text-format trace line failed to parse.  Thrown (rather than
 * aborting) so readers can attach the file/line context before
 * reporting, and so malformed input from outside the process is a
 * recoverable condition, not a crash.
 */
class ValidateError : public std::runtime_error
{
  public:
    /** @param field the offending field name ("time", "type", "len"…)
     *  @param value the text that failed to parse */
    ValidateError(const std::string &field, const std::string &value)
        : std::runtime_error("bad trace field '" + field + "': '" +
                             value + "'"),
          field_(field)
    {
    }

    /** The offending field's name. */
    const std::string &field() const { return field_; }

  private:
    std::string field_;
};

/** Magic bytes at the start of a binary trace file. */
inline constexpr std::uint32_t kTraceMagic = 0x4e564653; // "NVFS"

/** Current binary format version. */
inline constexpr std::uint16_t kTraceVersion = 1;

/**
 * Little-endian field helpers shared by every nvfs binary format.
 * The cursor advances past the encoded/decoded field.
 */
template <typename T>
inline void
putLE(std::uint8_t *&cursor, T value)
{
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        *cursor++ = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(value) >> (8 * i));
    }
}

template <typename T>
inline T
getLE(const std::uint8_t *&cursor)
{
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<std::uint64_t>(*cursor++) << (8 * i);
    return static_cast<T>(value);
}

/** Metadata stored in the binary header. */
struct TraceHeader
{
    std::uint16_t version = kTraceVersion;
    std::uint16_t traceIndex = 0; ///< which of the 8 traces (0-based)
    std::uint32_t clientCount = 0;
    TimeUs duration = 0;
    std::uint64_t eventCount = 0;

    bool operator==(const TraceHeader &other) const = default;
};

/** Serialize one event into exactly kRecordSize bytes. */
void encodeEvent(const Event &event, std::ostream &out);

/** Deserialize one event; nullopt at clean EOF, fatal on corruption. */
std::optional<Event> decodeEvent(std::istream &in);

/** Size in bytes of one encoded record. */
inline constexpr std::size_t kRecordSize = 8 + 8 + 8 + 4 + 4 + 2 + 2 + 1 +
                                           4 + 3; // padded to 44

/** Size in bytes of the encoded header. */
inline constexpr std::size_t kTraceHeaderSize = 32;

/**
 * Decode one record from exactly kRecordSize in-memory bytes (the
 * mmap-based parallel reader's primitive — no stream, no allocation,
 * no fatal, so it is safe to call from worker threads).  Returns
 * false on a corrupt record (bad event type).
 */
bool decodeEventBytes(const std::uint8_t *record, Event &out);

/**
 * Decode and validate a header from kTraceHeaderSize in-memory
 * bytes.  On failure returns nullopt and sets *error to a message
 * ("bad magic" / "unsupported trace version"); never fatal, so the
 * caller can attach file context first.
 */
std::optional<TraceHeader> decodeHeaderBytes(const std::uint8_t *data,
                                             std::string *error);

/** Write the header. */
void encodeHeader(const TraceHeader &header, std::ostream &out);

/** Read and validate the header; fatal on bad magic/version. */
TraceHeader decodeHeader(std::istream &in);

/** Parse one text-format line; nullopt for blank/comment lines. */
std::optional<Event> parseTextEvent(const std::string &line);

} // namespace nvfs::trace

/**
 * @file
 * On-disk layout structures of the log-structured file system
 * (Rosenblum & Ousterhout's Sprite LFS, as described in Section 3 and
 * Figure 7 of the paper).
 *
 * The log is a sequence of fixed-size segments.  A segment holds file
 * data blocks and per-file metadata blocks, and ends with a 512-byte
 * summary block describing its contents.  We track identities and
 * sizes, never data bytes.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace nvfs::lfs {

/** Why a segment was written to disk. */
enum class SealCause : std::uint8_t {
    Full,       ///< a whole segment of dirty data accumulated
    Fsync,      ///< application fsync forced a partial write
    Timeout,    ///< 30-second delayed write-back flushed aged data
    Cleaner,    ///< segment written while compacting live data
    Checkpoint, ///< checkpoint forced the open segment out
    Shutdown,   ///< final flush at end of run
};

/** Printable seal-cause name. */
std::string sealCauseName(SealCause cause);

/** What one slot of a segment contains. */
enum class EntryKind : std::uint8_t { Data, Metadata, Summary };

/** One entry in a segment (block-sized or the trailing summary). */
struct SegmentEntry
{
    EntryKind kind = EntryKind::Data;
    FileId file = kNoFile;         ///< Data/Metadata: owning file
    std::uint32_t blockIndex = 0;  ///< Data: block within the file
    Bytes bytes = 0;               ///< bytes occupied in the segment
    bool live = true;              ///< Data: still referenced?
};

/** Address of a data block within the log. */
struct SegmentAddress
{
    std::uint32_t segment = 0; ///< segment sequence number
    std::uint32_t slot = 0;    ///< entry index within the segment

    bool operator==(const SegmentAddress &other) const = default;
};

/** One sealed (written) segment. */
struct Segment
{
    std::uint32_t id = 0;
    SealCause cause = SealCause::Full;
    std::vector<SegmentEntry> entries;
    Bytes dataBytes = 0;     ///< file data
    Bytes metadataBytes = 0; ///< inode/indirect blocks
    Bytes summaryBytes = 0;  ///< the trailing summary block
    Bytes liveBytes = 0;     ///< data bytes still referenced
    bool reclaimed = false;  ///< freed by the cleaner
    /** Fault injection: the write was interrupted before the summary
     *  block hit the disk.  The summary is what makes the segment
     *  parseable, so recovery treats the log as ending here. */
    bool torn = false;
    /** Fault injection: the summary block is present but fails its
     *  checksum (media corruption rather than a lost write).  Strict
     *  recovery stops here like a torn segment; quarantining recovery
     *  skips the segment and resyncs at the next segment boundary. */
    bool corrupt = false;

    /** Total on-disk footprint. */
    Bytes
    totalBytes() const
    {
        return dataBytes + metadataBytes + summaryBytes;
    }

    /** Live fraction of the data payload, for cleaner policy. */
    double
    utilization() const
    {
        return dataBytes > 0
                   ? static_cast<double>(liveBytes) /
                         static_cast<double>(dataBytes)
                   : 0.0;
    }
};

/** Bytes of one metadata (inode) block in a segment. */
inline constexpr Bytes kMetadataBlockBytes = kBlockSize;

/** Bytes of a segment's trailing summary block. */
inline constexpr Bytes kSummaryBytes = 512;

/**
 * Static layout parameters.  A file data block is kBlockSize bytes,
 * as on the clients.
 */
struct LfsConfig
{
    Bytes segmentBytes = 512 * kKiB; ///< Sprite LFS segment size
    /** Disk capacity in segments (0 = unbounded, cleaner idle). */
    std::uint32_t diskSegments = 0;
    /** Start cleaning when free segments drop below this many. */
    std::uint32_t cleanLowWater = 8;
    /** Clean until at least this many segments are free. */
    std::uint32_t cleanHighWater = 16;
};

} // namespace nvfs::lfs

/**
 * @file
 * The log-structured file system core: an append-only log of segments
 * with an inode map, live-byte accounting, deletion/truncation records
 * for crash recovery, and checkpoints.
 *
 * Dirty blocks accumulate in an open ("pending") segment; the segment
 * is written to disk either when full or when forced out early by an
 * fsync or the 30-second delayed write-back — the partial-segment
 * writes at the center of Section 3.  Every seal() is one disk write
 * access and charges at least one metadata block (4 KB per distinct
 * file) plus a 512-byte summary block, matching the paper's overhead
 * accounting.
 */

#pragma once

#include <optional>
#include <vector>

#include "lfs/inode_map.hpp"
#include "lfs/segment.hpp"
#include "nvram/crash_site.hpp"
#include "util/flat_map.hpp"
#include "util/interval_set.hpp"

namespace nvfs::lfs {

/**
 * One chronological record in a segment's recovery journal.  Write
 * records resolve to the block's final slot in the segment (writes
 * whose data was deleted again before the seal resolve to nothing and
 * are skipped on replay); Delete/Truncate records persist the
 * directory operations that happened during the segment's lifetime.
 */
struct JournalRecord
{
    enum class Kind : std::uint8_t { Write, Delete, Truncate };

    Kind kind = Kind::Write;
    FileId file = kNoFile;
    std::uint32_t block = 0; ///< Write: block index;
                             ///< Truncate: first dead block

    bool operator==(const JournalRecord &other) const = default;
};

/** Counters over the life of a log. */
struct LogStats
{
    std::uint64_t segmentsWritten = 0;  ///< == disk write accesses
    std::uint64_t fullSegments = 0;
    std::uint64_t partialSegments = 0;
    std::uint64_t partialsByFsync = 0;
    std::uint64_t partialsByTimeout = 0;
    std::uint64_t cleanerSegments = 0;
    Bytes dataBytes = 0;
    Bytes metadataBytes = 0;
    Bytes summaryBytes = 0;
    Bytes fsyncDataBytes = 0;    ///< data in fsync-forced partials
    Bytes partialDataBytes = 0;  ///< data in all partials
    Bytes cleanerCopiedBytes = 0;

    /** Total bytes written to the disk. */
    Bytes
    diskBytes() const
    {
        return dataBytes + metadataBytes + summaryBytes;
    }
};

/** Checkpoint: a consistent inode-map snapshot. */
struct Checkpoint
{
    std::uint32_t nextSegment = 0; ///< first segment not covered
    InodeMap inodes;
};

/** The append-only segment log. */
class LfsLog
{
  public:
    explicit LfsLog(const LfsConfig &config = {});

    /**
     * Write (up to) one block of dirty data into the log.  Auto-seals
     * a Full segment when the pending data reaches the segment size.
     * Equivalent to writeBlockRange(file, block, 0, bytes).
     * @param bytes dirty bytes in the block, <= kBlockSize
     */
    void writeBlock(FileId file, std::uint32_t block, Bytes bytes);

    /**
     * Write dirty byte range [begin, end) of a block (offsets within
     * the block).  Repeated writes of one block into the same open
     * segment union their ranges — the block occupies the union, as
     * it would in the real segment buffer.
     */
    void writeBlockRange(FileId file, std::uint32_t block, Bytes begin,
                         Bytes end);

    /**
     * Force the pending data to disk (fsync / delayed write-back /
     * checkpoint / shutdown).
     * @return true if a segment was written, false if nothing pending
     */
    bool seal(SealCause cause);

    /** Delete a file: drop pending blocks, dead-en on-disk blocks. */
    void deleteFile(FileId file);

    /** Truncate a file to `new_size` bytes. */
    void truncate(FileId file, Bytes new_size);

    /** Bytes of file data waiting in the open segment. */
    Bytes pendingBytes() const { return pendingData_; }

    /**
     * (file, block) of every block waiting in the open segment, in
     * append order, excluding cleaner copies (their data is still
     * durable in the victim segments).  These are exactly the blocks
     * a power failure would lose — the crash oracle checks the NVRAM
     * write buffer covers them.
     */
    std::vector<std::pair<FileId, std::uint32_t>> pendingBlocks() const;

    /** Checkpoint the file system (seals pending data first). */
    Checkpoint takeCheckpoint();

    /** Read access for reporting, the cleaner, and recovery. */
    const LfsConfig &config() const { return config_; }
    const InodeMap &inodes() const { return inodes_; }
    const std::vector<Segment> &segments() const { return segments_; }
    const LogStats &stats() const { return stats_; }

    /** Segments on disk that are not reclaimed. */
    std::uint32_t activeSegments() const { return active_; }

    /**
     * Recovery journal persisted with segment `id` (rides in its
     * summary; replayed chronologically on roll-forward).
     */
    const std::vector<JournalRecord> &journalOf(std::uint32_t id) const;

    /** Free segments left (only meaningful with diskSegments > 0). */
    std::uint32_t freeSegments() const;

    // ---- Cleaner interface -------------------------------------------

    /**
     * Re-append a live block during cleaning.  Identical to
     * writeBlock but auto-seals with SealCause::Cleaner and counts
     * cleaner traffic.
     */
    void cleanerCopyBlock(FileId file, std::uint32_t block, Bytes bytes);

    /** Flush the cleaner's pending data. */
    void cleanerFlush();

    /** Mark a sealed segment reclaimed (its space is free again).
     *  Releases the segment's entry storage — only identity, cause
     *  and byte totals remain inspectable afterwards. */
    void reclaim(std::uint32_t segment_id);

    /** Ids of sealed, unreclaimed segments (ascending). */
    const std::vector<std::uint32_t> &activeSegmentIds() const
    {
        return activeIds_;
    }

    // ---- Crash sites (nvfs::crash) -----------------------------------

    /**
     * Attach a crash-site hook (nvfs::crash); nullptr detaches.  Not
     * owned.  The hook is consulted at every durable transition —
     * journal appends, seal begin, each inode-map update during a
     * seal, seal commit, and checkpoints — and can crash the log
     * there: PowerFail drops the op (and, at seal begin, the open
     * segment's volatile contents); Torn completes the seal in memory
     * but marks the segment torn; Dead makes the op a no-op (the host
     * is already down).
     */
    void setCrashHook(nvram::CrashSiteHook *hook) { crashHook_ = hook; }

    /** True when an attached crash hook has declared the host down. */
    bool crashed() const;

    /**
     * Full structural audit (nvfs::check): segment entry/byte
     * accounting, inode-map ↔ live-entry bijection, active-segment
     * bookkeeping, pending-set cross-consistency, and cumulative
     * LogStats byte totals against a ground-truth rescan.  Throws
     * util::AuditError on violation.
     */
    void auditInvariants() const;

  private:
    /** Test-only peer that corrupts internals to prove audits fire. */
    friend class AuditTestPeer;
    /** Test-only peer that corrupts durable state (journal records,
     *  sealed segments) to prove the crash oracle catches it. */
    friend class CrashTestPeer;

    struct PendingBlock
    {
        FileId file;
        std::uint32_t block;
        util::IntervalSet ranges; ///< dirty ranges within the block
        /** Cleaner copy: the data is still durable in its victim
         *  segment, so losing the open segment cannot lose it. */
        bool cleaner = false;

        Bytes bytes() const { return ranges.totalBytes(); }
    };

    /** Shared implementation of the write/copy entry points. */
    void appendInternal(FileId file, std::uint32_t block, Bytes begin,
                        Bytes end, bool cleaner);

    /** Metadata charge for the current pending set. */
    Bytes pendingMetadataBytes() const;

    /** Dead-en a superseded on-disk copy. */
    void killAddress(const SegmentAddress &address);

    /** The attached hook's answer at a crash site; None without a
     *  hook. */
    nvram::CrashAction atSite(nvram::CrashSiteKind kind,
                              std::uint64_t detail);

    LfsConfig config_;
    InodeMap inodes_;
    std::vector<Segment> segments_;
    LogStats stats_;
    std::uint32_t active_ = 0;
    /** Ascending: ids only grow, so a seal appends and reclaim()
     *  binary-searches. */
    std::vector<std::uint32_t> activeIds_;

    std::vector<PendingBlock> pending_;
    /** pending_ position of each block, keyed pendingKey(file, block). */
    util::FlatMap<std::uint64_t, std::size_t, util::SplitMix64Hash>
        pendingIndex_;
    /** Pending block count per distinct file. */
    util::FlatMap<FileId, int, util::SplitMix64Hash> pendingFiles_;
    Bytes pendingData_ = 0;
    std::vector<JournalRecord> pendingJournal_;
    /** Per-segment persisted journals, indexed by segment id. */
    std::vector<std::vector<JournalRecord>> journals_;

    nvram::CrashSiteHook *crashHook_ = nullptr;
};

} // namespace nvfs::lfs

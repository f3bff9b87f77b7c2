#include "lfs/log.hpp"

#include <algorithm>
#include <functional>

#include "obs/obs.hpp"
#include "util/audit.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace nvfs::lfs {

namespace {

/** pendingIndex_ key of one file block. */
std::uint64_t
pendingKey(FileId file, std::uint32_t block)
{
    return (static_cast<std::uint64_t>(file) << 32) | block;
}

/** A site answer that kills an op before anything durable names it. */
bool
diesInMemory(nvram::CrashAction action)
{
    return action == nvram::CrashAction::PowerFail ||
           action == nvram::CrashAction::Dead;
}

/** A seal-site answer that leaves the segment without its summary. */
bool
tears(nvram::CrashAction action)
{
    return action == nvram::CrashAction::Torn ||
           action == nvram::CrashAction::Dead;
}

} // namespace

std::string
sealCauseName(SealCause cause)
{
    switch (cause) {
      case SealCause::Full: return "full";
      case SealCause::Fsync: return "fsync";
      case SealCause::Timeout: return "timeout";
      case SealCause::Cleaner: return "cleaner";
      case SealCause::Checkpoint: return "checkpoint";
      case SealCause::Shutdown: return "shutdown";
    }
    return "unknown";
}

LfsLog::LfsLog(const LfsConfig &config) : config_(config)
{
    NVFS_REQUIRE(config_.segmentBytes >= 2 * kBlockSize,
                 "segment must hold at least two blocks");
}

Bytes
LfsLog::pendingMetadataBytes() const
{
    // At least one metadata block per segment, one per distinct file.
    const std::size_t files = std::max<std::size_t>(
        1, pendingFiles_.size());
    return static_cast<Bytes>(files) * kMetadataBlockBytes;
}

void
LfsLog::killAddress(const SegmentAddress &address)
{
    NVFS_REQUIRE(address.segment < segments_.size(),
                 "dead address out of range");
    Segment &segment = segments_[address.segment];
    NVFS_REQUIRE(address.slot < segment.entries.size(),
                 "dead slot out of range");
    SegmentEntry &entry = segment.entries[address.slot];
    if (entry.live) {
        entry.live = false;
        NVFS_REQUIRE(segment.liveBytes >= entry.bytes,
                     "live-byte underflow");
        segment.liveBytes -= entry.bytes;
    }
}

nvram::CrashAction
LfsLog::atSite(nvram::CrashSiteKind kind, std::uint64_t detail)
{
    return crashHook_ == nullptr
               ? nvram::CrashAction::None
               : crashHook_->onSite(kind, detail, this);
}

void
LfsLog::appendInternal(FileId file, std::uint32_t block, Bytes begin,
                       Bytes end, bool cleaner)
{
    NVFS_REQUIRE(begin < end && end <= kBlockSize,
                 "block write range out of range");

    if (diesInMemory(atSite(nvram::CrashSiteKind::JournalAppend, file))) {
        // The write dies in volatile memory before reaching the open
        // segment; nothing durable ever names it.
        return;
    }

    // Rewriting a block already in the open segment unions the dirty
    // ranges: the block occupies one slot in the segment buffer.
    const std::uint64_t key = pendingKey(file, block);
    if (const std::size_t *at = pendingIndex_.find(key)) {
        PendingBlock &pb = pending_[*at];
        const Bytes before = pb.bytes();
        pb.ranges.insert(begin, end);
        pendingData_ += pb.bytes() - before;
        if (cleaner)
            stats_.cleanerCopiedBytes += pb.bytes() - before;
        else
            pb.cleaner = false; // fresh data joined a cleaner copy
        return;
    }

    // Seal first if this block would overflow the segment.
    const Bytes bytes = end - begin;
    const bool new_file = !pendingFiles_.contains(file);
    const Bytes meta = pendingMetadataBytes() +
        (new_file ? kMetadataBlockBytes : 0);
    if (!pending_.empty() &&
        pendingData_ + bytes + meta + kSummaryBytes >
            config_.segmentBytes) {
        seal(cleaner ? SealCause::Cleaner : SealCause::Full);
    }

    pendingIndex_[key] = pending_.size();
    PendingBlock pb;
    pb.file = file;
    pb.block = block;
    pb.cleaner = cleaner;
    pb.ranges.insert(begin, end);
    pending_.push_back(std::move(pb));
    ++pendingFiles_[file];
    pendingData_ += bytes;
    pendingJournal_.push_back({JournalRecord::Kind::Write, file, block});
    if (cleaner)
        stats_.cleanerCopiedBytes += bytes;
}

void
LfsLog::writeBlock(FileId file, std::uint32_t block, Bytes bytes)
{
    appendInternal(file, block, 0, bytes, false);
}

void
LfsLog::writeBlockRange(FileId file, std::uint32_t block, Bytes begin,
                        Bytes end)
{
    appendInternal(file, block, begin, end, false);
}

void
LfsLog::cleanerCopyBlock(FileId file, std::uint32_t block, Bytes bytes)
{
    appendInternal(file, block, 0, bytes, true);
}

void
LfsLog::cleanerFlush()
{
    seal(SealCause::Cleaner);
}

bool
LfsLog::seal(SealCause cause)
{
    if (pending_.empty() && pendingJournal_.empty())
        return false;
    if (pending_.empty() && cause != SealCause::Checkpoint &&
        cause != SealCause::Shutdown) {
        // Deletion records ride along with the next data segment
        // rather than forcing a write of their own.
        return false;
    }

    switch (atSite(nvram::CrashSiteKind::SealBegin, 0)) {
      case nvram::CrashAction::PowerFail:
        // Power died before the write began: the disk is untouched and
        // the open segment's volatile contents are gone.
        pending_.clear();
        pendingIndex_.clear();
        pendingFiles_.clear();
        pendingData_ = 0;
        pendingJournal_.clear();
        return false;
      case nvram::CrashAction::Dead:
        // The host is already down; the write is never issued.
        return false;
      default:
        break;
    }

    // One metadata block per distinct file (minimum one).
    const std::size_t files = std::max<std::size_t>(
        1, pendingFiles_.size());
    Segment segment;
    segment.id = static_cast<std::uint32_t>(segments_.size());
    segment.cause = cause;
    segment.entries.reserve(pending_.size() + files + 1);

    for (const PendingBlock &pb : pending_) {
        if (tears(atSite(nvram::CrashSiteKind::InodeUpdate, pb.file))) {
            // Crash mid-seal: some prefix of the data is on disk but
            // the summary never follows.  The in-memory image still
            // completes (recovery never parses a torn segment, so its
            // exact contents are moot).
            segment.torn = true;
        }
        const SegmentAddress address{
            segment.id, static_cast<std::uint32_t>(
                            segment.entries.size())};
        const Bytes bytes = pb.bytes();
        segment.entries.push_back({EntryKind::Data, pb.file, pb.block,
                                   bytes, true});
        segment.dataBytes += bytes;
        segment.liveBytes += bytes;
        if (auto old = inodes_.update(pb.file, pb.block, address))
            killAddress(*old);
    }
    for (std::size_t i = 0; i < files; ++i) {
        segment.entries.push_back({EntryKind::Metadata, kNoFile, 0,
                                   kMetadataBlockBytes, false});
        segment.metadataBytes += kMetadataBlockBytes;
    }
    segment.entries.push_back({EntryKind::Summary, kNoFile, 0,
                               kSummaryBytes, false});
    segment.summaryBytes = kSummaryBytes;

    // Stats (the obs mirror feeds nvfs_sim --stats; the per-log
    // LogStats stays authoritative for the Table 3 reproduction).
    static const obs::Counter sealed("lfs.segments_sealed");
    static const obs::Counter partials("lfs.partial_segments");
    static const obs::Counter fsyncForced("lfs.fsync_forced_partials");
    sealed.add();
    ++stats_.segmentsWritten;
    stats_.dataBytes += segment.dataBytes;
    stats_.metadataBytes += segment.metadataBytes;
    stats_.summaryBytes += segment.summaryBytes;
    // A segment is "full" when the auto-seal closed it because no
    // further block would fit; every forced seal is a partial write.
    const bool partial = cause != SealCause::Full;
    if (cause == SealCause::Cleaner) {
        ++stats_.cleanerSegments;
    } else if (partial) {
        partials.add();
        ++stats_.partialSegments;
        stats_.partialDataBytes += segment.dataBytes;
        if (cause == SealCause::Fsync) {
            fsyncForced.add();
            ++stats_.partialsByFsync;
            stats_.fsyncDataBytes += segment.dataBytes;
        } else if (cause == SealCause::Timeout) {
            ++stats_.partialsByTimeout;
        }
    } else {
        ++stats_.fullSegments;
    }

    ++active_;
    if (config_.diskSegments > 0 && active_ > config_.diskSegments) {
        util::warn(util::format("LFS disk over capacity: %u active of "
                                "%u segments — cleaner falling behind",
                                active_, config_.diskSegments));
    }

    // Persist the chronological journal (conceptually part of the
    // summary block); recovery replays it in order.  A copy is one
    // exact-size allocation, and the open journal keeps its capacity
    // for the next segment.
    journals_.resize(segments_.size() + 1);
    journals_[segment.id] = pendingJournal_;
    pendingJournal_.clear();

    activeIds_.push_back(segment.id); // ids only grow
    segments_.push_back(std::move(segment));
    pending_.clear();
    pendingIndex_.clear();
    pendingFiles_.clear();
    pendingData_ = 0;

    if (tears(atSite(nvram::CrashSiteKind::SealCommit,
                     segments_.back().id))) {
        // The summary block never reached the disk.  The in-memory
        // state proceeds as if the write succeeded — the pre-crash
        // host cannot tell — and recovery ends the log here.
        segments_.back().torn = true;
    }
    return true;
}

void
LfsLog::deleteFile(FileId file)
{
    if (diesInMemory(atSite(nvram::CrashSiteKind::JournalAppend, file)))
        return; // the delete dies in volatile memory
    // Drop pending blocks of the file.
    if (pendingFiles_.erase(file) > 0) {
        std::vector<PendingBlock> kept;
        kept.reserve(pending_.size());
        pendingIndex_.clear();
        pendingData_ = 0;
        for (PendingBlock &pb : pending_) {
            if (pb.file == file)
                continue;
            pendingIndex_[pendingKey(pb.file, pb.block)] = kept.size();
            pendingData_ += pb.bytes();
            kept.push_back(std::move(pb));
        }
        pending_ = std::move(kept);
    }
    for (const SegmentAddress &address : inodes_.removeFile(file))
        killAddress(address);
    pendingJournal_.push_back({JournalRecord::Kind::Delete, file, 0});
}

void
LfsLog::truncate(FileId file, Bytes new_size)
{
    if (diesInMemory(atSite(nvram::CrashSiteKind::JournalAppend, file)))
        return; // the truncate dies in volatile memory
    const auto first_dead = static_cast<std::uint32_t>(
        blocksCovering(new_size));
    // Pending blocks beyond the new size die before reaching disk.
    // Decide before moving anything: an unconditional move here used
    // to gut the surviving blocks' range sets whenever the truncated
    // file had nothing pending (the moved-into vector was discarded).
    const bool touched = std::any_of(
        pending_.begin(), pending_.end(), [&](const PendingBlock &pb) {
            return pb.file == file && pb.block >= first_dead;
        });
    if (touched) {
        std::vector<PendingBlock> kept;
        kept.reserve(pending_.size());
        for (PendingBlock &pb : pending_) {
            if (pb.file == file && pb.block >= first_dead)
                continue;
            kept.push_back(std::move(pb));
        }
        pending_ = std::move(kept);
        pendingIndex_.clear();
        pendingFiles_.clear();
        pendingData_ = 0;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            pendingIndex_[pendingKey(pending_[i].file,
                                     pending_[i].block)] = i;
            ++pendingFiles_[pending_[i].file];
            pendingData_ += pending_[i].bytes();
        }
    }
    for (const SegmentAddress &address :
         inodes_.truncate(file, first_dead)) {
        killAddress(address);
    }
    pendingJournal_.push_back({JournalRecord::Kind::Truncate, file,
                               first_dead});
}

Checkpoint
LfsLog::takeCheckpoint()
{
    if (diesInMemory(atSite(nvram::CrashSiteKind::Checkpoint, 0))) {
        // The checkpoint was never written; the caller holds a
        // snapshot covering nothing (roll-forward starts at segment
        // zero).
        return Checkpoint{};
    }
    seal(SealCause::Checkpoint);
    Checkpoint cp;
    cp.nextSegment = static_cast<std::uint32_t>(segments_.size());
    cp.inodes = inodes_;
    return cp;
}

bool
LfsLog::crashed() const
{
    return crashHook_ != nullptr && crashHook_->dead();
}

std::vector<std::pair<FileId, std::uint32_t>>
LfsLog::pendingBlocks() const
{
    std::vector<std::pair<FileId, std::uint32_t>> out;
    out.reserve(pending_.size());
    for (const PendingBlock &pb : pending_) {
        if (!pb.cleaner)
            out.emplace_back(pb.file, pb.block);
    }
    return out;
}

std::uint32_t
LfsLog::freeSegments() const
{
    if (config_.diskSegments == 0)
        return 0;
    return active_ >= config_.diskSegments
               ? 0
               : config_.diskSegments - active_;
}

const std::vector<JournalRecord> &
LfsLog::journalOf(std::uint32_t id) const
{
    static const std::vector<JournalRecord> kEmpty;
    if (id >= journals_.size())
        return kEmpty;
    return journals_[id];
}

void
LfsLog::reclaim(std::uint32_t segment_id)
{
    NVFS_REQUIRE(segment_id < segments_.size(),
                 "reclaim of unknown segment");
    Segment &segment = segments_[segment_id];
    NVFS_REQUIRE(!segment.reclaimed, "double reclaim");
    NVFS_REQUIRE(segment.liveBytes == 0,
                 "reclaiming a segment with live data");
    segment.reclaimed = true;
    // Free the bulk storage: a reclaimed segment's slots can never be
    // the latest copy of anything (liveBytes == 0), so recovery's
    // slot lookup safely finds nothing; its journal is kept for the
    // delete/truncate records.
    segment.entries.clear();
    segment.entries.shrink_to_fit();
    NVFS_REQUIRE(active_ > 0, "active segment underflow");
    --active_;
    const auto it = std::lower_bound(activeIds_.begin(), activeIds_.end(),
                                     segment_id);
    if (it != activeIds_.end() && *it == segment_id)
        activeIds_.erase(it);
}

void
LfsLog::auditInvariants() const
{
    // --- Segments: identity, per-kind byte sums, live accounting. ---
    Bytes all_data = 0;
    Bytes all_metadata = 0;
    Bytes all_summary = 0;
    std::size_t live_entries = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const Segment &segment = segments_[i];
        NVFS_AUDIT_CHECK(segment.id == i, "LfsLog",
                         "segment id does not match its position");
        all_data += segment.dataBytes;
        all_metadata += segment.metadataBytes;
        all_summary += segment.summaryBytes;
        if (segment.reclaimed) {
            NVFS_AUDIT_CHECK(segment.entries.empty(), "LfsLog",
                             "reclaimed segment kept its entries");
            NVFS_AUDIT_CHECK(segment.liveBytes == 0, "LfsLog",
                             "reclaimed segment reports live bytes");
            continue;
        }
        Bytes data = 0;
        Bytes metadata = 0;
        Bytes summary = 0;
        Bytes live = 0;
        for (const SegmentEntry &entry : segment.entries) {
            switch (entry.kind) {
              case EntryKind::Data:
                data += entry.bytes;
                if (entry.live) {
                    live += entry.bytes;
                    ++live_entries;
                }
                break;
              case EntryKind::Metadata:
                metadata += entry.bytes;
                break;
              case EntryKind::Summary:
                summary += entry.bytes;
                break;
            }
        }
        NVFS_AUDIT_CHECK(data == segment.dataBytes, "LfsLog",
                         "segment data-byte total diverged");
        NVFS_AUDIT_CHECK(metadata == segment.metadataBytes, "LfsLog",
                         "segment metadata-byte total diverged");
        NVFS_AUDIT_CHECK(summary == segment.summaryBytes, "LfsLog",
                         "segment summary-byte total diverged");
        NVFS_AUDIT_CHECK(live == segment.liveBytes, "LfsLog",
                         "segment live-byte accounting diverged");
    }

    // --- Inode map <-> live data entries. ---
    // Every map address must name a live data entry of its own file
    // and block.  Distinct map keys then name distinct entries, so
    // equal populations make the correspondence a bijection: no live
    // entry is missing from the map, and no map entry points at a
    // dead, foreign or missing copy.
    std::size_t mapped = 0;
    bool current = true;
    inodes_.forEach([&](FileId file, std::uint32_t block,
                        const SegmentAddress &address) {
        ++mapped;
        if (!current)
            return;
        const std::vector<SegmentEntry> *entries =
            address.segment < segments_.size()
                ? &segments_[address.segment].entries
                : nullptr;
        if (entries == nullptr || address.slot >= entries->size()) {
            current = false;
            return;
        }
        const SegmentEntry &entry = (*entries)[address.slot];
        current = entry.kind == EntryKind::Data && entry.live &&
                  entry.file == file && entry.blockIndex == block;
    });
    NVFS_AUDIT_CHECK(current, "LfsLog",
                     "live data entry not current in the inode map "
                     "(stale liveness)");
    NVFS_AUDIT_CHECK(live_entries == mapped, "LfsLog",
                     "inode map population diverged from live "
                     "segment entries");

    // --- Active-segment bookkeeping. ---
    NVFS_AUDIT_CHECK(activeIds_.size() == active_, "LfsLog",
                     "active counter diverged from the active set");
    NVFS_AUDIT_CHECK(std::adjacent_find(activeIds_.begin(),
                                        activeIds_.end(),
                                        std::greater_equal<>()) ==
                         activeIds_.end(),
                     "LfsLog", "active set not strictly ascending");
    for (const std::uint32_t id : activeIds_) {
        NVFS_AUDIT_CHECK(id < segments_.size(), "LfsLog",
                         "active set names an unknown segment");
        NVFS_AUDIT_CHECK(!segments_[id].reclaimed, "LfsLog",
                         "active set names a reclaimed segment");
    }
    for (const Segment &segment : segments_) {
        NVFS_AUDIT_CHECK(segment.reclaimed ||
                             std::binary_search(activeIds_.begin(),
                                                activeIds_.end(),
                                                segment.id),
                         "LfsLog",
                         "sealed unreclaimed segment missing from "
                         "the active set");
    }

    // --- Pending (open-segment) state. ---
    pendingIndex_.auditInvariants();
    pendingFiles_.auditInvariants();
    Bytes pending_total = 0;
    util::FlatMap<FileId, int, util::SplitMix64Hash> file_counts;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        const PendingBlock &pb = pending_[i];
        pb.ranges.auditInvariants();
        NVFS_AUDIT_CHECK(!pb.ranges.empty(), "LfsLog",
                         "pending block with no dirty bytes");
        NVFS_AUDIT_CHECK(pb.ranges.runs().back().end <= kBlockSize,
                         "LfsLog",
                         "pending dirty range extends past the block");
        pending_total += pb.bytes();
        ++file_counts[pb.file];
        const std::size_t *at =
            pendingIndex_.find(pendingKey(pb.file, pb.block));
        NVFS_AUDIT_CHECK(at != nullptr && *at == i,
                         "LfsLog",
                         "pending index does not name the pending "
                         "block's position");
    }
    NVFS_AUDIT_CHECK(pendingIndex_.size() == pending_.size(), "LfsLog",
                     "pending index population diverged");
    NVFS_AUDIT_CHECK(pending_total == pendingData_, "LfsLog",
                     "pending byte accounting diverged");
    bool counts_match = file_counts.size() == pendingFiles_.size();
    pendingFiles_.forEach([&](FileId file, int count) {
        const int *mine = file_counts.find(file);
        counts_match = counts_match && mine != nullptr && *mine == count;
    });
    NVFS_AUDIT_CHECK(counts_match, "LfsLog",
                     "pending per-file counts diverged");

    // --- Cumulative stats vs. the segments actually sealed. ---
    NVFS_AUDIT_CHECK(stats_.segmentsWritten == segments_.size(),
                     "LfsLog",
                     "segmentsWritten diverged from the log");
    NVFS_AUDIT_CHECK(stats_.dataBytes == all_data, "LfsLog",
                     "cumulative data-byte stat diverged");
    NVFS_AUDIT_CHECK(stats_.metadataBytes == all_metadata, "LfsLog",
                     "cumulative metadata-byte stat diverged");
    NVFS_AUDIT_CHECK(stats_.summaryBytes == all_summary, "LfsLog",
                     "cumulative summary-byte stat diverged");

    // journals_ is kept exactly one slot per sealed segment.
    NVFS_AUDIT_CHECK(journals_.size() == segments_.size(), "LfsLog",
                     "journal store diverged from the segment count");
}

} // namespace nvfs::lfs

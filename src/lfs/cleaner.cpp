#include "lfs/cleaner.hpp"

#include <algorithm>
#include <vector>

namespace nvfs::lfs {

CleanResult
Cleaner::clean(LfsLog &log, std::uint32_t target_free, bool force)
{
    CleanResult result;
    const bool bounded = log.config().diskSegments > 0;
    if (!bounded && !force)
        return result;

    // Compacting pays off only if a batch of victims' live data fits
    // in fewer output segments than it frees: cap one pass's copy
    // volume at (roughly) one segment of payload.
    const Bytes payload =
        log.config().segmentBytes - 2 * kMetadataBlockBytes - kSummaryBytes;

    while (force || log.freeSegments() < target_free) {
        if (log.crashed())
            break; // the host died; no further cleaning happens
        const bool forced_pass = force;
        force = false; // force means "at least one pass"

        // Candidates in ascending live-byte order: every reclaimed
        // segment frees one slot, so the cheapest copies win.  Fully
        // dead segments are free wins; fully live *partial* segments
        // are still worth coalescing.
        std::vector<const Segment *> candidates;
        candidates.reserve(log.activeSegmentIds().size());
        for (const std::uint32_t id : log.activeSegmentIds())
            candidates.push_back(&log.segments()[id]);
        std::sort(candidates.begin(), candidates.end(),
                  [](const Segment *a, const Segment *b) {
                      return a->liveBytes < b->liveBytes;
                  });

        std::vector<std::uint32_t> batch;
        Bytes batch_live = 0;
        for (const Segment *segment : candidates) {
            if (batch_live + segment->liveBytes > payload)
                break;
            batch.push_back(segment->id);
            batch_live += segment->liveBytes;
        }
        // A single all-dead victim is productive; a single victim
        // with live data is not — except on an explicitly forced
        // pass, where compaction for its own sake is the caller's
        // intent.
        if (batch.empty() ||
            (batch.size() == 1 && batch_live > 0 && !forced_pass)) {
            break; // nothing productive left to clean
        }
        const std::size_t active_before = log.activeSegmentIds().size();

        for (const std::uint32_t victim_id : batch) {
            ++result.segmentsExamined;
            for (std::size_t slot = 0;
                 slot < log.segments()[victim_id].entries.size();
                 ++slot) {
                const SegmentEntry entry =
                    log.segments()[victim_id].entries[slot];
                if (entry.kind != EntryKind::Data || !entry.live)
                    continue;
                // Copy only if the inode map still points here.
                const auto current = log.inodes().locate(
                    entry.file, entry.blockIndex);
                if (!current ||
                    !(*current ==
                      SegmentAddress{victim_id,
                                     static_cast<std::uint32_t>(
                                         slot)})) {
                    continue;
                }
                log.cleanerCopyBlock(entry.file, entry.blockIndex,
                                     entry.bytes);
                result.liveBytesCopied += entry.bytes;
            }
        }
        // A crash mid-pass leaves the copies (and thus the victims'
        // liveness) incomplete; the dead host never reclaims.
        if (log.crashed())
            break;
        log.cleanerFlush();
        if (log.crashed())
            break;
        for (const std::uint32_t victim_id : batch) {
            log.reclaim(victim_id);
            ++result.segmentsReclaimed;
        }
        // Progress check: the payload cap budgets the copies into one
        // segment, but a copy writes metadata per distinct file, so
        // the copies can fill as many segments as the pass reclaimed.
        // A pass that left no fewer active segments than it found
        // freed nothing, and every further pass would grow the log the
        // same way.
        if (log.activeSegmentIds().size() >= active_before)
            break;
    }
    return result;
}

CleanResult
Cleaner::maybeClean(LfsLog &log)
{
    if (log.config().diskSegments == 0)
        return {};
    if (log.freeSegments() >= log.config().cleanLowWater)
        return {};
    return clean(log, log.config().cleanHighWater);
}

} // namespace nvfs::lfs

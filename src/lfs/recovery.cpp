#include "lfs/recovery.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "obs/obs.hpp"

namespace nvfs::lfs {

namespace {

/** Where a segment's last copy of one (file, block) sits. */
struct FinalSlot
{
    std::uint64_t key = 0; ///< file in the high half, block in the low
    std::uint32_t slot = 0;
};

std::uint64_t
slotKey(FileId file, std::uint32_t block)
{
    return (static_cast<std::uint64_t>(file) << 32) | block;
}

/**
 * Final location of each (file, block) within one segment, sorted by
 * key.  A block the segment holds twice keeps its last slot.
 */
std::vector<FinalSlot>
finalSlots(const Segment &segment)
{
    std::vector<FinalSlot> slots;
    slots.reserve(segment.entries.size());
    for (std::uint32_t slot = 0; slot < segment.entries.size();
         ++slot) {
        const SegmentEntry &entry = segment.entries[slot];
        if (entry.kind == EntryKind::Data)
            slots.push_back({slotKey(entry.file, entry.blockIndex), slot});
    }
    // A repeated key's copies sort latest first, so unique() keeps the
    // last one.
    std::sort(slots.begin(), slots.end(),
              [](const FinalSlot &a, const FinalSlot &b) {
                  return a.key != b.key ? a.key < b.key : a.slot > b.slot;
              });
    slots.erase(std::unique(slots.begin(), slots.end(),
                            [](const FinalSlot &a, const FinalSlot &b) {
                                return a.key == b.key;
                            }),
                slots.end());
    return slots;
}

/** The segment slot holding (file, block), if the segment has it. */
std::optional<std::uint32_t>
slotOf(const std::vector<FinalSlot> &slots, FileId file,
       std::uint32_t block)
{
    const std::uint64_t key = slotKey(file, block);
    const auto it = std::lower_bound(
        slots.begin(), slots.end(), key,
        [](const FinalSlot &s, std::uint64_t k) { return s.key < k; });
    if (it == slots.end() || it->key != key)
        return std::nullopt;
    return it->slot;
}

} // namespace

RecoveryResult
rollForward(const LfsLog &log, const Checkpoint *checkpoint,
            const RecoveryOptions &options)
{
    static const obs::Counter quarantined(
        "recovery.segments_quarantined");
    static const obs::Counter lostBlocks("recovery.blocks_lost");
    static const obs::Counter lostMetaOps("recovery.meta_ops_lost");

    RecoveryResult result;
    std::uint32_t first = 0;
    if (checkpoint) {
        result.inodes = checkpoint->inodes;
        first = checkpoint->nextSegment;
    }

    const auto &segments = log.segments();
    for (std::uint32_t id = first; id < segments.size(); ++id) {
        const Segment &segment = segments[id];
        ++result.report.segmentsScanned;
        if (segment.torn || segment.corrupt) {
            if (!options.quarantine) {
                // The summary block — the only description of the
                // segment's contents — is unreadable, so neither this
                // segment nor anything after it can be parsed.  The
                // log ends here.
                result.stoppedAtTornSegment = true;
                break;
            }
            // Quarantine: account for what the damaged segment held,
            // skip it, and resync at the next segment boundary.
            ++result.report.segmentsQuarantined;
            quarantined.add();
            const auto slots = finalSlots(segment);
            for (const JournalRecord &record : log.journalOf(id)) {
                switch (record.kind) {
                  case JournalRecord::Kind::Write:
                    // Only records whose data survived to the seal
                    // would have been replayed.
                    if (slotOf(slots, record.file, record.block)) {
                        ++result.report.blocksLost;
                        lostBlocks.add();
                    }
                    break;
                  case JournalRecord::Kind::Delete:
                  case JournalRecord::Kind::Truncate:
                    ++result.report.metaOpsLost;
                    lostMetaOps.add();
                    break;
                }
            }
            continue;
        }
        ++result.segmentsReplayed;

        const auto slots = finalSlots(segment);

        // Replay the journal chronologically.
        for (const JournalRecord &record : log.journalOf(id)) {
            switch (record.kind) {
              case JournalRecord::Kind::Write: {
                const auto slot =
                    slotOf(slots, record.file, record.block);
                if (!slot)
                    break; // data died again before the seal
                result.inodes.update(record.file, record.block,
                                     {id, *slot});
                ++result.blocksRecovered;
                break;
              }
              case JournalRecord::Kind::Delete:
                result.inodes.removeFile(record.file);
                ++result.metaOpsReplayed;
                break;
              case JournalRecord::Kind::Truncate:
                result.inodes.truncate(record.file, record.block);
                ++result.metaOpsReplayed;
                break;
            }
        }
    }
    return result;
}

} // namespace nvfs::lfs

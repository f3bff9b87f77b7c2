#include "core/client/unified_model.hpp"

#include "util/audit.hpp"
#include "util/log.hpp"

namespace nvfs::core {

UnifiedModel::UnifiedModel(const ModelConfig &config, Metrics &metrics,
                           const FileSizeMap &sizes, util::Rng &rng)
    : ClientModel(config, metrics, sizes, rng),
      volatile_(config.volatileBytes / kBlockSize),
      nvram_(config.nvramBytes / kBlockSize,
             cache::makePolicy(config.nvramPolicy, &rng, config.oracle))
{
    NVFS_REQUIRE(volatile_.capacityBlocks() > 0,
                 "volatile cache too small");
    NVFS_REQUIRE(nvram_.capacityBlocks() > 0, "NVRAM too small");
}

void
UnifiedModel::evictNvramVictim(TimeUs now)
{
    const auto victim_id = nvram_.chooseVictim(now);
    NVFS_REQUIRE(victim_id.has_value(), "full NVRAM without victim");
    const Bytes transfer = blockTransferBytes(*victim_id, sizes_);
    const cache::CacheBlock victim = nvram_.remove(*victim_id);
    if (victim.isDirty())
        serverWriteBlock(*victim_id, WriteCause::Replacement, now);
    // Demotion rule: keep a clean copy in the volatile cache when
    // the victim was accessed more recently than the volatile LRU
    // block (or the volatile cache has room).
    bool demote;
    if (!volatile_.full()) {
        demote = true;
    } else {
        demote = volatile_.lruAccessTime() < victim.lastAccess;
        if (demote)
            volatile_.remove(*volatile_.lruBlock());
    }
    if (demote) {
        volatile_.insertOrdered(*victim_id, victim.lastAccess);
        metrics_.nvramToCacheBytes += transfer;
        metrics_.busBytes += transfer;
        ++metrics_.nvramReadAccesses; // reading it out of NVRAM
    }
}

void
UnifiedModel::ensureNvramSpace(TimeUs now)
{
    while (nvram_.full())
        evictNvramVictim(now);
}

void
UnifiedModel::placeCleanBlock(const cache::BlockId &id, TimeUs now)
{
    // "A clean block may be put in the NVRAM if a read operation finds
    // the volatile cache full while the NVRAM has a free block or
    // contains the least-recently accessed block."
    if (!volatile_.full()) {
        volatile_.insert(id, now);
        return;
    }
    if (!nvram_.full()) {
        nvram_.insert(id, now);
        ++metrics_.nvramWriteAccesses;
        return;
    }
    const TimeUs nvram_lru = nvram_.lruAccessTime();
    const TimeUs volatile_lru = volatile_.lruAccessTime();
    if (nvram_lru < volatile_lru) {
        // The globally least-recent block sits in NVRAM: replace it.
        const cache::BlockId victim_id = *nvram_.lruBlock();
        const cache::CacheBlock victim = nvram_.remove(victim_id);
        if (victim.isDirty())
            serverWriteBlock(victim_id, WriteCause::Replacement, now);
        nvram_.insert(id, now);
        ++metrics_.nvramWriteAccesses;
    } else {
        volatile_.remove(*volatile_.lruBlock());
        volatile_.insert(id, now);
    }
}

void
UnifiedModel::readBlock(const cache::BlockId &id, TimeUs now)
{
    if (volatile_.contains(id)) {
        volatile_.touch(id, now);
        return;
    }
    if (nvram_.contains(id)) {
        nvram_.touch(id, now);
        ++metrics_.nvramReadAccesses;
        return;
    }
    const Bytes fetched = blockTransferBytes(id, sizes_);
    metrics_.serverReadBytes += fetched;
    metrics_.busBytes += fetched;
    placeCleanBlock(id, now);
}

void
UnifiedModel::writeBlock(const cache::BlockId &id, Bytes begin,
                         Bytes end, TimeUs now)
{
    const Bytes n = end - begin;
    if (nvram_.contains(id)) {
        metrics_.absorbedOverwrittenBytes +=
            nvram_.peek(id)->dirty.overlapBytes(begin, end);
        nvram_.markDirty(id, begin, end, now);
        ++metrics_.nvramWriteAccesses;
        metrics_.busBytes += n;
        return;
    }
    if (volatile_.contains(id)) {
        // Partial update of a block cached clean in volatile memory:
        // transfer it to the NVRAM and update it there (rare; Section
        // 2.6).
        const Bytes transfer = blockTransferBytes(id, sizes_);
        volatile_.remove(id);
        ensureNvramSpace(now);
        nvram_.insert(id, now);
        nvram_.markDirty(id, begin, end, now);
        metrics_.cacheToNvramBytes += transfer;
        metrics_.busBytes += transfer + n;
        metrics_.nvramWriteAccesses += 2;
        return;
    }
    ensureNvramSpace(now);
    nvram_.insert(id, now);
    nvram_.markDirty(id, begin, end, now);
    ++metrics_.nvramWriteAccesses;
    metrics_.busBytes += n;
}

void
UnifiedModel::read(FileId file, Bytes offset, Bytes length, TimeUs now)
{
    metrics_.appReadBytes += length;
    if (length == 0)
        return;
    const std::uint32_t last = lastBlockOf(offset, length);
    std::uint32_t b = firstBlockOf(offset);
    while (b <= last) {
        const auto rv = volatile_.probeRange(file, b, last);
        if (rv.resident) {
            volatile_.touchRange(file, b, rv.end - 1, now);
            b = rv.end;
            continue;
        }
        const auto rn = nvram_.probeRange(file, b, last);
        std::uint32_t end = std::min(rv.end, rn.end);
        if (rn.resident) {
            nvram_.touchRange(file, b, end - 1, now);
            metrics_.nvramReadAccesses += std::uint64_t{end - b};
            b = end;
            continue;
        }
        // placeCleanBlock degenerates to a plain volatile insert while
        // the volatile cache has room; anything tighter consults
        // occupancy and LRU ages per block, so chunk the run at the
        // free space (batching exactly the prefix that fits) and fall
        // back for the rest.
        const std::uint64_t free = volatile_.freeBlocks();
        if (free > 0)
            end = clampRunEnd(b, end, free);
        const auto count = std::uint64_t{end - b};
        const Bytes fetched = rangeTransferBytes(file, b, end - 1);
        metrics_.serverReadBytes += fetched;
        metrics_.busBytes += fetched;
        if (free >= count) {
            volatile_.insertRange(file, b, end - 1, now);
        } else {
            for (std::uint32_t i = b; i < end; ++i)
                placeCleanBlock(cache::BlockId{file, i}, now);
        }
        b = end;
    }
}

void
UnifiedModel::write(FileId file, Bytes offset, Bytes length, TimeUs now)
{
    metrics_.appWriteBytes += length;
    if (length == 0)
        return;
    const Bytes op_end = offset + length;
    const bool lru_nvram = config_.nvramPolicy == cache::PolicyKind::Lru;
    const std::uint32_t last = lastBlockOf(offset, length);
    std::uint32_t b = firstBlockOf(offset);
    while (b <= last) {
        const auto rv = volatile_.probeRange(file, b, last);
        const auto rn = nvram_.probeRange(file, b, last);
        std::uint32_t end = std::min(rv.end, rn.end);
        // Chunk double-miss runs at the NVRAM capacity so the batched
        // fill below keeps applying to runs longer than the cache.
        if (!rn.resident && !rv.resident && lru_nvram)
            end = clampRunEnd(b, end, nvram_.capacityBlocks());
        const auto count = std::uint64_t{end - b};
        const Bytes run_begin =
            std::max<Bytes>(offset, Bytes{b} * kBlockSize);
        const Bytes run_end =
            std::min<Bytes>(op_end, Bytes{end} * kBlockSize);
        if (rn.resident) {
            metrics_.absorbedOverwrittenBytes += nvram_.markDirtyRange(
                file, run_begin, run_end - run_begin, now);
            metrics_.nvramWriteAccesses += count;
            metrics_.busBytes += run_end - run_begin;
        } else if (!rv.resident && lru_nvram &&
                   count <= nvram_.capacityBlocks()) {
            // Whole-run NVRAM fill.  Victims are successive LRU heads
            // and demotion decisions only read volatile-cache state,
            // which evolves identically whether the evictions
            // interleave with the inserts or precede them.
            while (nvram_.freeBlocks() < count)
                evictNvramVictim(now);
            nvram_.insertRange(file, b, end - 1, now);
            nvram_.markDirtyRange(file, run_begin, run_end - run_begin,
                                  now);
            metrics_.nvramWriteAccesses += count;
            metrics_.busBytes += run_end - run_begin;
        } else {
            forEachBlock(file, run_begin, run_end - run_begin,
                         [&](const cache::BlockId &id, Bytes begin,
                             Bytes in_end) {
                             writeBlock(id, begin, in_end, now);
                         });
        }
        b = end;
    }
}

void
UnifiedModel::fsync(FileId, TimeUs)
{
    // Absorbed: dirty data is already permanent in the NVRAM.
}

Bytes
UnifiedModel::recallRange(FileId file, Bytes offset, Bytes length,
                          WriteCause cause, TimeUs now)
{
    if (length == 0)
        return 0;
    Bytes flushed = 0;
    const std::uint32_t first = firstBlockOf(offset);
    const std::uint32_t last = lastBlockOf(offset, length);
    recallScratch_.clear();
    nvram_.peekRange(file, first, last,
                     [&](const cache::CacheBlock &block) {
                         recallScratch_.emplace_back(block.id.index,
                                                     block.isDirty());
                     });
    RunFlusher flusher(*this, file, cause, now);
    std::uint64_t dirty_count = 0;
    for (const auto &[index, dirty] : recallScratch_) {
        nvram_.remove(cache::BlockId{file, index});
        if (dirty) {
            flusher.add(index);
            ++dirty_count;
        }
    }
    flushed += flusher.finish();
    metrics_.nvramReadAccesses += dirty_count;
    recallScratch_.clear();
    volatile_.peekRange(file, first, last,
                        [&](const cache::CacheBlock &block) {
                            recallScratch_.emplace_back(block.id.index,
                                                        false);
                        });
    for (const auto &[index, dirty] : recallScratch_) {
        (void)dirty;
        volatile_.remove(cache::BlockId{file, index});
    }
    return flushed;
}

void
UnifiedModel::recall(FileId file, WriteCause cause, TimeUs now)
{
    // The removal walk hands dirty blocks over in ascending order;
    // contiguous ones flush as single runs (one metrics update each),
    // and the NVRAM read count is added once for the whole file.
    RunFlusher flusher(*this, file, cause, now);
    std::uint64_t dirty_count = 0;
    nvram_.removeFileBlocks(file,
                            [&](const cache::CacheBlock &block) {
                                if (block.isDirty()) {
                                    flusher.add(block.id.index);
                                    ++dirty_count;
                                }
                            });
    flusher.finish();
    metrics_.nvramReadAccesses += dirty_count;
    volatile_.removeFileBlocks(file);
}

void
UnifiedModel::removeFile(FileId file, TimeUs now)
{
    (void)now;
    nvram_.removeFileBlocks(file,
                            [&](const cache::CacheBlock &block) {
                                absorbBlock(block, true);
                            });
    volatile_.removeFileBlocks(file);
}

void
UnifiedModel::truncate(FileId file, Bytes new_size, TimeUs now)
{
    (void)now;
    const auto first_dead =
        static_cast<std::uint32_t>(blocksCovering(new_size));
    for (const cache::BlockId &id : nvram_.blocksOfFile(file)) {
        if (id.index >= first_dead) {
            absorbBlock(nvram_.remove(id), true);
        } else if (id.index + 1 == first_dead &&
                   new_size % kBlockSize != 0) {
            metrics_.absorbedDeletedBytes += nvram_.trimDirty(
                id, new_size % kBlockSize, kBlockSize);
        }
    }
    for (const cache::BlockId &id : volatile_.blocksOfFile(file)) {
        if (id.index >= first_dead)
            volatile_.remove(id);
    }
}

void
UnifiedModel::crash(TimeUs now)
{
    // Volatile contents vanish; the NVRAM (clean and dirty blocks)
    // survives.  Recovered dirty data is flushed to the server.
    for (const cache::BlockId &id : nvram_.allDirtyBlocks()) {
        serverWriteBlock(id, WriteCause::Recovery, now);
        nvram_.markClean(id);
        ++metrics_.nvramReadAccesses;
    }
    for (const cache::BlockId &id : volatile_.allBlocks())
        volatile_.remove(id);
}

void
UnifiedModel::finish(TimeUs now)
{
    for (const cache::BlockId &id : nvram_.allDirtyBlocks()) {
        serverWriteBlock(id, WriteCause::EndOfTrace, now);
        nvram_.markClean(id);
    }
}

Bytes
UnifiedModel::recallBlock(const cache::BlockId &id, WriteCause cause,
                          TimeUs now)
{
    Bytes flushed = 0;
    if (nvram_.contains(id) && nvram_.remove(id).isDirty()) {
        flushed = serverWriteBlock(id, cause, now);
        ++metrics_.nvramReadAccesses;
    }
    if (volatile_.contains(id))
        volatile_.remove(id);
    return flushed;
}

void
UnifiedModel::auditInvariants() const
{
    volatile_.auditInvariants();
    nvram_.auditInvariants();
    for (const cache::BlockId &id : nvram_.allBlocks()) {
        NVFS_AUDIT_CHECK(!volatile_.contains(id), "UnifiedModel",
                         "block resident in both memories");
    }
    NVFS_AUDIT_CHECK(volatile_.dirtyBlockCount() == 0, "UnifiedModel",
                     "dirty block outside the NVRAM");
}

} // namespace nvfs::core

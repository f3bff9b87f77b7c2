#include "core/client/unified_model.hpp"

#include "util/audit.hpp"
#include "util/log.hpp"

namespace nvfs::core {

UnifiedModel::UnifiedModel(const ModelConfig &config, Metrics &metrics,
                           const FileSizeMap &sizes, util::Rng &rng)
    : ClientModel(config, metrics, sizes),
      volatile_(config.volatileBytes / kBlockSize),
      nvram_(config.nvramBytes / kBlockSize,
             cache::makePolicy(config.nvramPolicy, &rng, config.oracle))
{
    NVFS_REQUIRE(volatile_.capacityBlocks() > 0,
                 "volatile cache too small");
    NVFS_REQUIRE(nvram_.capacityBlocks() > 0, "NVRAM too small");
}

void
UnifiedModel::ensureNvramSpace(TimeUs now)
{
    while (nvram_.full()) {
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
UnifiedModel::fsync(FileId, TimeUs)
{
    // Absorbed: dirty data is already permanent in the NVRAM.
}

void
UnifiedModel::recall(FileId file, WriteCause cause, TimeUs now)
{
    nvram_.removeFileBlocks(file, [&](const cache::CacheBlock &block) {
        if (!block.isDirty())
            return;
        serverWriteBlock(block.id, cause, now);
        ++metrics_.nvramReadAccesses;
    });
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

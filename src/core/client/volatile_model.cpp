#include "core/client/volatile_model.hpp"

#include <cmath>

#include "util/log.hpp"

namespace nvfs::core {

VolatileModel::VolatileModel(const ModelConfig &config, Metrics &metrics,
                             const FileSizeMap &sizes, util::Rng &rng)
    : ClientModel(config, metrics, sizes),
      cache_(config.volatileBytes / kBlockSize),
      sizingPhase_(rng.uniform(0.0, 2.0 * M_PI))
{
    NVFS_REQUIRE(cache_.capacityBlocks() > 0,
                 "volatile cache too small for one block");
}

void
VolatileModel::resize(TimeUs now)
{
    if (!config_.dynamicSizing)
        return;
    // VM pressure as a deterministic per-client oscillation between
    // dynamicMinFraction and 1.0 of the configured size.
    const double phase =
        2.0 * M_PI * static_cast<double>(now) /
            static_cast<double>(kDynamicSizingPeriod) +
        sizingPhase_;
    const double fraction =
        config_.dynamicMinFraction +
        (1.0 - config_.dynamicMinFraction) *
            (0.5 + 0.5 * std::sin(phase));
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               fraction * static_cast<double>(config_.volatileBytes /
                                              kBlockSize)));
    cache_.setCapacityBlocks(target);
    // Shrinking hands pages back to the VM system immediately; dirty
    // victims must reach the server first.
    while (cache_.overFull()) {
        const auto victim = cache_.chooseVictim(now);
        NVFS_REQUIRE(victim.has_value(), "over-full without victim");
        if (cache_.peek(*victim)->isDirty())
            flushBlock(*victim, WriteCause::Replacement, now);
        cache_.remove(*victim);
    }
}

void
VolatileModel::flushBlock(const cache::BlockId &id, WriteCause cause,
                          TimeUs now)
{
    serverWriteBlock(id, cause, now);
    cache_.markClean(id);
}

void
VolatileModel::ensureSpace(TimeUs now)
{
    while (cache_.full()) {
        std::optional<cache::BlockId> victim;
        if (config_.dirtyPreference)
            victim = cache_.lruCleanBlock();
        if (!victim)
            victim = cache_.chooseVictim(now);
        NVFS_REQUIRE(victim.has_value(), "full cache without victim");
        const cache::CacheBlock *block = cache_.peek(*victim);
        if (block->isDirty())
            flushBlock(*victim, WriteCause::Replacement, now);
        cache_.remove(*victim);
    }
}

void
VolatileModel::readBlock(const cache::BlockId &id, TimeUs now)
{
    if (cache_.contains(id)) {
        cache_.touch(id, now);
        return;
    }
    const Bytes fetched = blockTransferBytes(id, sizes_);
    metrics_.serverReadBytes += fetched;
    metrics_.busBytes += fetched;
    ensureSpace(now);
    cache_.insert(id, now);
}

void
VolatileModel::writeBlock(const cache::BlockId &id, Bytes begin,
                          Bytes end, TimeUs now)
{
    if (!cache_.contains(id)) {
        ensureSpace(now);
        cache_.insert(id, now);
    }
    const cache::CacheBlock *block = cache_.peek(id);
    // Overwriting still-dirty bytes absorbs them.
    metrics_.absorbedOverwrittenBytes +=
        block->dirty.overlapBytes(begin, end);
    cache_.markDirty(id, begin, end, now);
    metrics_.busBytes += end - begin;
}

void
VolatileModel::fsync(FileId file, TimeUs now)
{
    for (const cache::BlockId &id : cache_.dirtyBlocksOfFile(file))
        flushBlock(id, WriteCause::Fsync, now);
    // The fsync itself reaches the server and forces a synchronous
    // disk write there (Sprite semantics).
    if (config_.sink)
        config_.sink->onFsync(now, file);
}

void
VolatileModel::recall(FileId file, WriteCause cause, TimeUs now)
{
    cache_.removeFileBlocks(file, [&](const cache::CacheBlock &block) {
        if (block.isDirty())
            serverWriteBlock(block.id, cause, now);
    });
}

void
VolatileModel::removeFile(FileId file, TimeUs now)
{
    (void)now;
    cache_.removeFileBlocks(file,
                            [&](const cache::CacheBlock &block) {
                                absorbBlock(block, true);
                            });
}

void
VolatileModel::truncate(FileId file, Bytes new_size, TimeUs now)
{
    (void)now;
    const auto first_dead =
        static_cast<std::uint32_t>(blocksCovering(new_size));
    for (const cache::BlockId &id : cache_.blocksOfFile(file)) {
        if (id.index >= first_dead) {
            absorbBlock(cache_.remove(id), true);
        } else if (id.index + 1 == first_dead &&
                   new_size % kBlockSize != 0) {
            // Boundary block: dirty bytes past the new end die.
            const Bytes cut = new_size % kBlockSize;
            metrics_.absorbedDeletedBytes +=
                cache_.trimDirty(id, cut, kBlockSize);
        }
    }
}

void
VolatileModel::tick(TimeUs now)
{
    resize(now);
    for (const cache::BlockId &id :
         cache_.dirtyOlderThan(now - config_.writeBackAge)) {
        flushBlock(id, WriteCause::DelayedWriteBack, now);
    }
}

void
VolatileModel::crash(TimeUs now)
{
    (void)now;
    // Everything in the volatile cache is gone; dirty data is lost.
    metrics_.lostDirtyBytes += cache_.dirtyBytes();
    for (const cache::BlockId &id : cache_.allBlocks())
        cache_.remove(id);
}

void
VolatileModel::finish(TimeUs now)
{
    for (const cache::BlockId &id : cache_.allDirtyBlocks())
        flushBlock(id, WriteCause::EndOfTrace, now);
}

Bytes
VolatileModel::recallBlock(const cache::BlockId &id, WriteCause cause,
                           TimeUs now)
{
    const cache::CacheBlock *block = cache_.peek(id);
    if (block == nullptr)
        return 0;
    Bytes flushed = 0;
    if (block->isDirty()) {
        flushed = blockTransferBytes(id, sizes_);
        flushBlock(id, cause, now);
    }
    cache_.remove(id);
    return flushed;
}

void
VolatileModel::auditInvariants() const
{
    cache_.auditInvariants();
}

} // namespace nvfs::core

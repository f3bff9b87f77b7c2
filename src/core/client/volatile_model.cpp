#include "core/client/volatile_model.hpp"

#include <cmath>

#include "util/log.hpp"

namespace nvfs::core {

VolatileModel::VolatileModel(const ModelConfig &config, Metrics &metrics,
                             const FileSizeMap &sizes, util::Rng &rng)
    : ClientModel(config, metrics, sizes, rng),
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
            static_cast<double>(config_.dynamicPeriod) +
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
VolatileModel::evictBlocks(std::uint64_t count, TimeUs now)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const auto victim = cache_.chooseVictim(now);
        NVFS_REQUIRE(victim.has_value(), "eviction from empty cache");
        if (cache_.peek(*victim)->isDirty())
            flushBlock(*victim, WriteCause::Replacement, now);
        cache_.remove(*victim);
    }
}

void
VolatileModel::fillRun(FileId file, std::uint32_t first,
                       std::uint32_t last, TimeUs now)
{
    const auto count = std::uint64_t{last - first} + 1;
    const std::uint64_t free = cache_.freeBlocks();
    if (free >= count) {
        cache_.insertRange(file, first, last, now);
        return;
    }
    // Evicting the whole deficit up front matches the per-block
    // interleaving exactly when victims come from the LRU list (always,
    // for this cache), replacement ignores dirtiness, and the
    // run fits in the cache: inserted blocks sit at the MRU end, so
    // the per-block schedule's victims are the same `count - free`
    // oldest pre-existing blocks in the same order.
    if (!config_.dirtyPreference && count <= cache_.capacityBlocks()) {
        evictBlocks(count - free, now);
        cache_.insertRange(file, first, last, now);
        return;
    }
    for (std::uint32_t b = first;; ++b) {
        ensureSpace(now);
        cache_.insert(cache::BlockId{file, b}, now);
        if (b == last)
            break;
    }
}

void
VolatileModel::read(FileId file, Bytes offset, Bytes length, TimeUs now)
{
    metrics_.appReadBytes += length;
    if (length == 0)
        return;
    const std::uint32_t last = lastBlockOf(offset, length);
    std::uint32_t b = firstBlockOf(offset);
    while (b <= last) {
        const auto run = cache_.probeRange(file, b, last);
        if (run.resident) {
            cache_.touchRange(file, b, run.end - 1, now);
            b = run.end;
            continue;
        }
        // Chunk runs longer than the cache so fillRun's batched fill
        // (which needs the run to fit) keeps applying.
        const std::uint32_t end =
            clampRunEnd(b, run.end, cache_.capacityBlocks());
        const Bytes fetched = rangeTransferBytes(file, b, end - 1);
        metrics_.serverReadBytes += fetched;
        metrics_.busBytes += fetched;
        fillRun(file, b, end - 1, now);
        b = end;
    }
}

void
VolatileModel::write(FileId file, Bytes offset, Bytes length, TimeUs now)
{
    metrics_.appWriteBytes += length;
    if (length == 0)
        return;
    const Bytes op_end = offset + length;
    const std::uint32_t last = lastBlockOf(offset, length);
    std::uint32_t b = firstBlockOf(offset);
    while (b <= last) {
        const auto run = cache_.probeRange(file, b, last);
        // Chunk miss runs longer than the cache so the batched path
        // below keeps applying.
        const std::uint32_t end =
            run.resident
                ? run.end
                : clampRunEnd(b, run.end, cache_.capacityBlocks());
        const Bytes run_begin =
            std::max<Bytes>(offset, Bytes{b} * kBlockSize);
        const Bytes run_end =
            std::min<Bytes>(op_end, Bytes{end} * kBlockSize);
        const auto count = std::uint64_t{end - b};
        // Filling first and dirtying after is only the per-block
        // schedule when no eviction decision can observe the
        // in-between state: dirty-preferring replacement would see the
        // run's blocks still clean and pick different victims.
        const bool batch =
            run.resident || cache_.freeBlocks() >= count ||
            (!config_.dirtyPreference &&
             count <= cache_.capacityBlocks());
        if (batch) {
            if (!run.resident)
                fillRun(file, b, end - 1, now);
            metrics_.absorbedOverwrittenBytes += cache_.markDirtyRange(
                file, run_begin, run_end - run_begin, now);
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
VolatileModel::fsync(FileId file, TimeUs now)
{
    for (const cache::BlockId &id : cache_.dirtyBlocksOfFile(file))
        flushBlock(id, WriteCause::Fsync, now);
    // The fsync itself reaches the server and forces a synchronous
    // disk write there (Sprite semantics).
    if (config_.sink)
        config_.sink->onFsync(now, file);
}

Bytes
VolatileModel::recallRange(FileId file, Bytes offset, Bytes length,
                           WriteCause cause, TimeUs now)
{
    if (length == 0)
        return 0;
    Bytes flushed = 0;
    // Snapshot the resident blocks first: flushing/removing while the
    // extent index is being walked would invalidate the walk.
    recallScratch_.clear();
    cache_.peekRange(file, firstBlockOf(offset),
                     lastBlockOf(offset, length),
                     [&](const cache::CacheBlock &block) {
                         recallScratch_.emplace_back(block.id.index,
                                                     block.isDirty());
                     });
    for (const auto &[index, dirty] : recallScratch_) {
        const cache::BlockId id{file, index};
        if (dirty) {
            flushed += blockTransferBytes(id, sizes_);
            flushBlock(id, cause, now);
        }
        cache_.remove(id);
    }
    return flushed;
}

void
VolatileModel::recall(FileId file, WriteCause cause, TimeUs now)
{
    // Dirty blocks flush in ascending block order either way, so the
    // single removal pass emits the same server-write sequence as a
    // flush pass followed by a removal pass — contiguous blocks
    // batched into one metrics update per run.
    RunFlusher flusher(*this, file, cause, now);
    cache_.removeFileBlocks(file,
                            [&](const cache::CacheBlock &block) {
                                if (block.isDirty())
                                    flusher.add(block.id.index);
                            });
    flusher.finish();
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

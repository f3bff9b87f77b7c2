#include "core/client/write_aside_model.hpp"

#include "util/audit.hpp"
#include "util/log.hpp"

namespace nvfs::core {

WriteAsideModel::WriteAsideModel(const ModelConfig &config,
                                 Metrics &metrics,
                                 const FileSizeMap &sizes,
                                 util::Rng &rng)
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
WriteAsideModel::flushNvramBlock(const cache::BlockId &id,
                                 WriteCause cause, TimeUs now)
{
    serverWriteBlock(id, cause, now);
    nvram_.remove(id);
    if (volatile_.contains(id))
        volatile_.markClean(id);
}

void
WriteAsideModel::ensureVolatileSpace(TimeUs now)
{
    while (volatile_.full()) {
        const auto victim = volatile_.chooseVictim(now);
        NVFS_REQUIRE(victim.has_value(), "full cache without victim");
        const cache::CacheBlock *block = volatile_.peek(*victim);
        if (block->isDirty()) {
            // "If a dirty block is replaced, it is written to the
            // server and then invalidated in both the volatile and
            // non-volatile caches."
            serverWriteBlock(*victim, WriteCause::Replacement, now);
            if (nvram_.contains(*victim))
                nvram_.remove(*victim);
        }
        volatile_.remove(*victim);
    }
}

void
WriteAsideModel::ensureNvramSpace(TimeUs now)
{
    while (nvram_.full()) {
        const auto victim = nvram_.chooseVictim(now);
        NVFS_REQUIRE(victim.has_value(), "full NVRAM without victim");
        flushNvramBlock(*victim, WriteCause::Replacement, now);
    }
}

void
WriteAsideModel::readBlock(const cache::BlockId &id, TimeUs now)
{
    // The NVRAM is never read during normal operation.
    if (volatile_.contains(id)) {
        volatile_.touch(id, now);
        return;
    }
    const Bytes fetched = blockTransferBytes(id, sizes_);
    metrics_.serverReadBytes += fetched;
    metrics_.busBytes += fetched;
    ensureVolatileSpace(now);
    volatile_.insert(id, now);
}

void
WriteAsideModel::writeBlock(const cache::BlockId &id, Bytes begin,
                            Bytes end, TimeUs now)
{
    const Bytes n = end - begin;
    // Volatile copy.
    if (!volatile_.contains(id)) {
        ensureVolatileSpace(now);
        volatile_.insert(id, now);
    }
    volatile_.markDirty(id, begin, end, now);
    // NVRAM duplicate (the "aside" write).
    if (!nvram_.contains(id)) {
        ensureNvramSpace(now);
        nvram_.insert(id, now);
    } else {
        metrics_.absorbedOverwrittenBytes +=
            nvram_.peek(id)->dirty.overlapBytes(begin, end);
    }
    nvram_.markDirty(id, begin, end, now);
    ++metrics_.nvramWriteAccesses;
    metrics_.busBytes += 2 * n; // both memories
}

void
WriteAsideModel::fillVolatileRun(FileId file, std::uint32_t first,
                                 std::uint32_t last, TimeUs now)
{
    const auto count = std::uint64_t{last - first} + 1;
    const std::uint64_t free = volatile_.freeBlocks();
    if (free < count) {
        for (std::uint64_t i = count - free; i > 0; --i) {
            const auto victim = volatile_.chooseVictim(now);
            NVFS_REQUIRE(victim.has_value(),
                         "eviction from empty cache");
            if (volatile_.peek(*victim)->isDirty()) {
                serverWriteBlock(*victim, WriteCause::Replacement, now);
                if (nvram_.contains(*victim))
                    nvram_.remove(*victim);
            }
            volatile_.remove(*victim);
        }
    }
    volatile_.insertRange(file, first, last, now);
}

void
WriteAsideModel::read(FileId file, Bytes offset, Bytes length,
                      TimeUs now)
{
    metrics_.appReadBytes += length;
    if (length == 0)
        return;
    const std::uint32_t last = lastBlockOf(offset, length);
    std::uint32_t b = firstBlockOf(offset);
    while (b <= last) {
        const auto run = volatile_.probeRange(file, b, last);
        if (run.resident) {
            volatile_.touchRange(file, b, run.end - 1, now);
            b = run.end;
            continue;
        }
        // Chunked at cache capacity, every miss run fits, so the
        // batched fill is always the per-block schedule (victims are
        // the pre-existing LRU blocks in both, and NVRAM only sees the
        // same removals in the same order).
        const std::uint32_t end =
            clampRunEnd(b, run.end, volatile_.capacityBlocks());
        const Bytes fetched = rangeTransferBytes(file, b, end - 1);
        metrics_.serverReadBytes += fetched;
        metrics_.busBytes += fetched;
        fillVolatileRun(file, b, end - 1, now);
        b = end;
    }
}

void
WriteAsideModel::write(FileId file, Bytes offset, Bytes length,
                       TimeUs now)
{
    metrics_.appWriteBytes += length;
    if (length == 0)
        return;
    const Bytes op_end = offset + length;
    const bool lru_nvram = config_.nvramPolicy == cache::PolicyKind::Lru;
    const std::uint32_t last = lastBlockOf(offset, length);
    std::uint32_t b = firstBlockOf(offset);
    while (b <= last) {
        // Joint partition: a run uniform in BOTH caches' residency.
        const auto rv = volatile_.probeRange(file, b, last);
        const auto rn = nvram_.probeRange(file, b, last);
        std::uint32_t end = std::min(rv.end, rn.end);
        // Chunk the run so the batched path below keeps applying: a
        // volatile miss must fit in the volatile cache, and an NVRAM
        // fill must fit in the NVRAM (LRU) or in its free space (policy
        // objects, which cannot absorb regrouped eviction notifications).
        if (!rv.resident)
            end = clampRunEnd(b, end, volatile_.capacityBlocks());
        if (!rn.resident) {
            if (lru_nvram)
                end = clampRunEnd(b, end, nvram_.capacityBlocks());
            else if (nvram_.freeBlocks() > 0)
                end = clampRunEnd(b, end, nvram_.freeBlocks());
        }
        const auto count = std::uint64_t{end - b};
        const Bytes run_begin =
            std::max<Bytes>(offset, Bytes{b} * kBlockSize);
        const Bytes run_end =
            std::min<Bytes>(op_end, Bytes{end} * kBlockSize);
        // Batching is only the per-block schedule when each cache's
        // victim choices cannot observe the regrouped state:
        //  - volatile fill: LRU victims (the volatile cache is always
        //    LRU), run fits in the cache;
        //  - nvram fill with evictions: LRU, run fits in the
        //    NVRAM, and the volatile side evicts *nothing* — a dirty
        //    volatile victim's flush would interleave with the NVRAM
        //    victims' flushes in the per-block schedule, and an NVRAM
        //    victim's markClean can flip a later volatile victim from
        //    dirty to clean.  With no volatile evictions the only
        //    events are the NVRAM victim flushes, in LRU order in both
        //    schedules, and the victims' volatile copies are disjoint
        //    from the run's blocks.
        // Any other NVRAM policy further requires zero NVRAM
        // evictions AND the no-volatile-evict condition: dirty
        // volatile victims remove their NVRAM duplicates, and
        // regrouping those policy notifications around the run's
        // inserts perturbs layout-sensitive policies (Random/Clock
        // keep blocks in a swap-remove array, so the same victim draw
        // lands on a different block).
        const bool no_volatile_evict =
            rv.resident || volatile_.freeBlocks() >= count;
        const bool fill_v_ok =
            no_volatile_evict || count <= volatile_.capacityBlocks();
        const bool fill_n_ok =
            rn.resident ||
            (lru_nvram
                 ? nvram_.freeBlocks() >= count ||
                       (no_volatile_evict &&
                        count <= nvram_.capacityBlocks())
                 : no_volatile_evict &&
                       nvram_.freeBlocks() >= count);
        if (fill_v_ok && fill_n_ok) {
            if (!rv.resident)
                fillVolatileRun(file, b, end - 1, now);
            volatile_.markDirtyRange(file, run_begin,
                                     run_end - run_begin, now);
            if (!rn.resident) {
                while (nvram_.freeBlocks() < count) {
                    const auto victim = nvram_.chooseVictim(now);
                    NVFS_REQUIRE(victim.has_value(),
                                 "full NVRAM without victim");
                    flushNvramBlock(*victim, WriteCause::Replacement,
                                    now);
                }
                nvram_.insertRange(file, b, end - 1, now);
            }
            metrics_.absorbedOverwrittenBytes += nvram_.markDirtyRange(
                file, run_begin, run_end - run_begin, now);
            metrics_.nvramWriteAccesses += count;
            metrics_.busBytes += 2 * (run_end - run_begin);
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
WriteAsideModel::fsync(FileId, TimeUs)
{
    // Absorbed: the data is already permanent in NVRAM.  ("dirty
    // blocks, even those from files explicitly fsync'd by the user,
    // remain in the NVRAM until replaced")
}

Bytes
WriteAsideModel::recallRange(FileId file, Bytes offset, Bytes length,
                             WriteCause cause, TimeUs now)
{
    if (length == 0)
        return 0;
    Bytes flushed = 0;
    // Flushes emit in ascending block order either way; removals emit
    // nothing, so flushing all NVRAM blocks before dropping the
    // volatile copies matches the per-block interleaving.
    const std::uint32_t first = firstBlockOf(offset);
    const std::uint32_t last = lastBlockOf(offset, length);
    recallScratch_.clear();
    nvram_.peekRange(file, first, last,
                     [&](const cache::CacheBlock &block) {
                         recallScratch_.emplace_back(block.id.index,
                                                     true);
                     });
    for (const auto &[index, dirty] : recallScratch_) {
        (void)dirty;
        const cache::BlockId id{file, index};
        flushed += blockTransferBytes(id, sizes_);
        flushNvramBlock(id, cause, now);
    }
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
WriteAsideModel::recall(FileId file, WriteCause cause, TimeUs now)
{
    // Every resident NVRAM block is dirty (the write-aside invariant),
    // so removing them all flushes exactly what the per-block
    // dirty-only loop flushed, in the same ascending order —
    // contiguous blocks batched into one metrics update per run.
    RunFlusher flusher(*this, file, cause, now);
    nvram_.removeFileBlocks(
        file, [&](const cache::CacheBlock &block) {
            if (block.isDirty()) {
                flusher.add(block.id.index);
                if (volatile_.contains(block.id))
                    volatile_.markClean(block.id);
            }
        });
    flusher.finish();
    volatile_.removeFileBlocks(file);
}

void
WriteAsideModel::removeFile(FileId file, TimeUs now)
{
    (void)now;
    nvram_.removeFileBlocks(file,
                            [&](const cache::CacheBlock &block) {
                                absorbBlock(block, true);
                            });
    volatile_.removeFileBlocks(file);
}

void
WriteAsideModel::truncate(FileId file, Bytes new_size, TimeUs now)
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
            // The NVRAM holds dirty blocks only: a block the cut left
            // clean goes, or it would later leave as a phantom
            // write-back.
            if (!nvram_.peek(id)->isDirty())
                nvram_.remove(id);
        }
    }
    for (const cache::BlockId &id : volatile_.blocksOfFile(file)) {
        if (id.index >= first_dead) {
            volatile_.remove(id);
        } else if (id.index + 1 == first_dead &&
                   new_size % kBlockSize != 0) {
            volatile_.trimDirty(id, new_size % kBlockSize, kBlockSize);
        }
    }
}

void
WriteAsideModel::crash(TimeUs now)
{
    // The NVRAM protects every dirty block: nothing is lost.  The
    // recovered data is flushed to the server so other clients can
    // see it (possibly from a different host, Section 4).
    for (const cache::BlockId &id : nvram_.allDirtyBlocks()) {
        serverWriteBlock(id, WriteCause::Recovery, now);
        nvram_.remove(id);
    }
    for (const cache::BlockId &id : volatile_.allBlocks())
        volatile_.remove(id);
}

void
WriteAsideModel::finish(TimeUs now)
{
    for (const cache::BlockId &id : nvram_.allDirtyBlocks())
        flushNvramBlock(id, WriteCause::EndOfTrace, now);
}

Bytes
WriteAsideModel::recallBlock(const cache::BlockId &id, WriteCause cause,
                             TimeUs now)
{
    Bytes flushed = 0;
    if (nvram_.contains(id)) {
        flushed = blockTransferBytes(id, sizes_);
        flushNvramBlock(id, cause, now);
    }
    if (volatile_.contains(id))
        volatile_.remove(id);
    return flushed;
}

void
WriteAsideModel::auditInvariants() const
{
    volatile_.auditInvariants();
    nvram_.auditInvariants();
    // Every NVRAM block is dirty and has a dirty volatile duplicate.
    for (const cache::BlockId &id : nvram_.allBlocks()) {
        NVFS_AUDIT_CHECK(nvram_.peek(id)->isDirty(), "WriteAsideModel",
                         "clean block in write-aside NVRAM");
        const cache::CacheBlock *shadow = volatile_.peek(id);
        NVFS_AUDIT_CHECK(shadow != nullptr && shadow->isDirty(),
                         "WriteAsideModel",
                         "NVRAM block without dirty volatile "
                         "duplicate");
    }
    // Every dirty volatile block is protected by NVRAM.
    for (const cache::BlockId &id : volatile_.allDirtyBlocks()) {
        NVFS_AUDIT_CHECK(nvram_.contains(id), "WriteAsideModel",
                         "dirty volatile block missing from NVRAM");
    }
}

} // namespace nvfs::core

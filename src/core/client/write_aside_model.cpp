#include "core/client/write_aside_model.hpp"

#include "util/audit.hpp"
#include "util/log.hpp"

namespace nvfs::core {

WriteAsideModel::WriteAsideModel(const ModelConfig &config,
                                 Metrics &metrics,
                                 const FileSizeMap &sizes,
                                 util::Rng &rng)
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
WriteAsideModel::fsync(FileId, TimeUs)
{
    // Absorbed: the data is already permanent in NVRAM.  ("dirty
    // blocks, even those from files explicitly fsync'd by the user,
    // remain in the NVRAM until replaced")
}

void
WriteAsideModel::recall(FileId file, WriteCause cause, TimeUs now)
{
    nvram_.removeFileBlocks(file, [&](const cache::CacheBlock &block) {
        if (!block.isDirty())
            return;
        serverWriteBlock(block.id, cause, now);
        if (volatile_.contains(block.id))
            volatile_.markClean(block.id);
    });
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

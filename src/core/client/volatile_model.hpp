/**
 * @file
 * The volatile client cache model (the paper's baseline).
 *
 * A single fixed-size LRU cache of 4 KB blocks.  Unlike real Sprite,
 * the block replacement policy gives no preference to dirty blocks
 * (configurable for the ablation) and the cache size is static.  A
 * block cleaner runs every 5 seconds and writes back blocks whose data
 * has been dirty longer than 30 seconds; fsync flushes a file's dirty
 * blocks synchronously.
 */

#pragma once

#include <utility>
#include <vector>

#include "core/client/client_model.hpp"

namespace nvfs::core {

/** Single volatile LRU cache with Sprite's delayed write-back. */
class VolatileModel : public ClientModel
{
  public:
    VolatileModel(const ModelConfig &config, Metrics &metrics,
                  const FileSizeMap &sizes, util::Rng &rng);

    void read(FileId file, Bytes offset, Bytes length,
              TimeUs now) override;
    void write(FileId file, Bytes offset, Bytes length,
               TimeUs now) override;
    void fsync(FileId file, TimeUs now) override;
    void recall(FileId file, WriteCause cause, TimeUs now) override;
    Bytes recallRange(FileId file, Bytes offset, Bytes length,
                      WriteCause cause, TimeUs now) override;
    void removeFile(FileId file, TimeUs now) override;
    void truncate(FileId file, Bytes new_size, TimeUs now) override;
    void tick(TimeUs now) override;
    void finish(TimeUs now) override;
    void crash(TimeUs now) override;
    Bytes dirtyBytes() const override { return cache_.dirtyBytes(); }
    void auditInvariants() const override;

    /** Resident blocks (tests). */
    const cache::BlockCache &cache() const { return cache_; }

  protected:
    /**
     * The per-block engine, one 4 KB block per call: the bodies
     * check::runPerBlockReference loops over as the differential
     * oracle for the batched read/write/recallRange.  writeBlock is
     * also the production fallback for runs no batch proof covers.
     */
    void readBlock(const cache::BlockId &id, TimeUs now);
    void writeBlock(const cache::BlockId &id, Bytes begin, Bytes end,
                    TimeUs now);
    /** Flush (if dirty) and drop one block; returns bytes sent. */
    Bytes recallBlock(const cache::BlockId &id, WriteCause cause,
                      TimeUs now);

  private:
    /** Write a dirty block's contents to the server and clean it. */
    void flushBlock(const cache::BlockId &id, WriteCause cause,
                    TimeUs now);

    /** Evict until an insert is possible. */
    void ensureSpace(TimeUs now);

    /**
     * Make blocks [first, last] of `file` resident (extent engine).
     * Batches the insert — and, when the per-block victim schedule
     * provably matches, the evictions — falling back to the per-block
     * loop otherwise.
     */
    void fillRun(FileId file, std::uint32_t first, std::uint32_t last,
                 TimeUs now);

    /** Evict exactly `count` victims (flushing dirty ones). */
    void evictBlocks(std::uint64_t count, TimeUs now);

    /** Apply Sprite's dynamic cache sizing (when enabled). */
    void resize(TimeUs now);

    cache::BlockCache cache_;
    double sizingPhase_ = 0.0;
    /** Scratch for recallRange (snapshot before mutating). */
    std::vector<std::pair<std::uint32_t, bool>> recallScratch_;
};

} // namespace nvfs::core

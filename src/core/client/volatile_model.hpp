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

#include "core/client/client_model.hpp"

namespace nvfs::core {

/** Single volatile LRU cache with Sprite's delayed write-back. */
class VolatileModel : public ClientModel
{
  public:
    VolatileModel(const ModelConfig &config, Metrics &metrics,
                  const FileSizeMap &sizes, util::Rng &rng);

    void fsync(FileId file, TimeUs now) override;
    void recall(FileId file, WriteCause cause, TimeUs now) override;
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
    void readBlock(const cache::BlockId &id, TimeUs now) override;
    void writeBlock(const cache::BlockId &id, Bytes begin, Bytes end,
                    TimeUs now) override;
    Bytes recallBlock(const cache::BlockId &id, WriteCause cause,
                      TimeUs now) override;

  private:
    /** Write a dirty block's contents to the server and clean it. */
    void flushBlock(const cache::BlockId &id, WriteCause cause,
                    TimeUs now);

    /** Evict until an insert is possible. */
    void ensureSpace(TimeUs now);

    /** Apply Sprite's dynamic cache sizing (when enabled). */
    void resize(TimeUs now);

    cache::BlockCache cache_;
    double sizingPhase_ = 0.0;
};

} // namespace nvfs::core

/**
 * @file
 * The unified NVRAM model (Figure 1, right) — the paper's preferred
 * organization.
 *
 * Volatile memory and NVRAM form one cache: a block lives in exactly
 * one of the two memories.  Dirty blocks may only live in the NVRAM;
 * clean blocks may live in either.  Application writes go to the
 * NVRAM; reads are satisfied from either memory.  When a write forces
 * a replacement in the NVRAM, the victim is written back (if dirty)
 * and demoted into the volatile cache when it is younger than the
 * volatile LRU block — so the NVRAM effectively enlarges the cache.
 */

#pragma once

#include "core/client/client_model.hpp"

namespace nvfs::core {

/** NVRAM + volatile combined cache, dirty data pinned to NVRAM. */
class UnifiedModel : public ClientModel
{
  public:
    UnifiedModel(const ModelConfig &config, Metrics &metrics,
                 const FileSizeMap &sizes, util::Rng &rng);

    void fsync(FileId file, TimeUs now) override;
    void recall(FileId file, WriteCause cause, TimeUs now) override;
    void removeFile(FileId file, TimeUs now) override;
    void truncate(FileId file, Bytes new_size, TimeUs now) override;
    void finish(TimeUs now) override;
    void crash(TimeUs now) override;
    Bytes dirtyBytes() const override { return nvram_.dirtyBytes(); }

    /** Direct access for tests. */
    const cache::BlockCache &volatileCache() const { return volatile_; }
    const cache::BlockCache &nvramCache() const { return nvram_; }

    /** Throwing audit: cache structure + residency disjointness. */
    void auditInvariants() const override;

  protected:
    void readBlock(const cache::BlockId &id, TimeUs now) override;
    void writeBlock(const cache::BlockId &id, Bytes begin, Bytes end,
                    TimeUs now) override;
    Bytes recallBlock(const cache::BlockId &id, WriteCause cause,
                      TimeUs now) override;

  private:
    /**
     * Make room in the NVRAM for one incoming block: pick a victim,
     * write it back if dirty, demote it to the volatile cache when the
     * paper's age rule says so.
     */
    void ensureNvramSpace(TimeUs now);

    /** Insert a clean fetched block per the unified placement rule. */
    void placeCleanBlock(const cache::BlockId &id, TimeUs now);

    cache::BlockCache volatile_;
    cache::BlockCache nvram_;
};

} // namespace nvfs::core

/**
 * @file
 * The write-aside NVRAM model (Figure 1, left).
 *
 * The NVRAM only protects the permanence of the dirty data in the
 * volatile cache: every dirty block has a duplicate copy in NVRAM and
 * the NVRAM is never read except after a crash.  There is no 30-second
 * delayed write-back and fsyncs are absorbed; dirty blocks leave the
 * NVRAM only through replacement (by other dirty blocks) or the
 * consistency mechanism.  Writing into both memories costs twice the
 * memory-bus traffic of the unified model.
 */

#pragma once

#include "core/client/client_model.hpp"

namespace nvfs::core {

/** Volatile LRU cache with an NVRAM shadow of the dirty blocks. */
class WriteAsideModel : public ClientModel
{
  public:
    WriteAsideModel(const ModelConfig &config, Metrics &metrics,
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

    /** Throwing audit: cache structure + the mirroring invariant. */
    void auditInvariants() const override;

  protected:
    void readBlock(const cache::BlockId &id, TimeUs now) override;
    void writeBlock(const cache::BlockId &id, Bytes begin, Bytes end,
                    TimeUs now) override;
    Bytes recallBlock(const cache::BlockId &id, WriteCause cause,
                      TimeUs now) override;

  private:
    /** Flush an NVRAM block to the server; volatile copy goes clean. */
    void flushNvramBlock(const cache::BlockId &id, WriteCause cause,
                         TimeUs now);

    /** Evict from the volatile cache until an insert fits. */
    void ensureVolatileSpace(TimeUs now);

    /** Evict from the NVRAM until an insert fits. */
    void ensureNvramSpace(TimeUs now);

    cache::BlockCache volatile_;
    cache::BlockCache nvram_;
};

} // namespace nvfs::core

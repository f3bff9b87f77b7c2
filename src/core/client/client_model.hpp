/**
 * @file
 * The abstract per-client cache model and the three implementations
 * the paper compares (Figure 1): volatile, write-aside, and unified.
 *
 * A model owns that client's cache memories.  It reports traffic into
 * a shared cluster-wide Metrics object and consults a shared file-size
 * table to clip block transfers at end-of-file (a partial application
 * write can still cause a whole cache block to travel, which is why
 * Table 2's columns exceed the application write total).
 *
 * A model handles one 4 KB block at a time: read, write and
 * recallRange are loops over each model's per-block bodies.  Cells
 * with an LRU NVRAM and none of the ablations below replay on the
 * curve engine instead (core/sim/curve.hpp, through runClientSim and
 * runClientGrid); the models serve random, clock and omniscient
 * NVRAMs, dirty preference, dynamic sizing, injected client crashes,
 * block-level callbacks and the tests' reference replays (ClusterSim).
 */

#pragma once

#include <algorithm>
#include <memory>

#include "cache/block_cache.hpp"
#include "core/client/metrics.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace nvfs::core {

/** Current size of every file (maintained by the cluster sim). */
using FileSizeMap = util::FlatMap<FileId, Bytes, util::SplitMix64Hash>;

/**
 * Bytes a whole-block transfer of `id` moves: clipped at end of file,
 * a full block when the file's size is unknown or stale.  The client
 * models and the curve engine's clients all charge through it.
 */
inline Bytes
blockTransferBytes(const cache::BlockId &id, const FileSizeMap &sizes)
{
    const Bytes *size = sizes.find(id.file);
    const Bytes start = id.byteOffset();
    if (size == nullptr || *size <= start)
        return kBlockSize;
    return std::min<Bytes>(kBlockSize, *size - start);
}

/** Which cache organization a client runs. */
enum class ModelKind { Volatile, WriteAside, Unified };

/** Printable model name. */
std::string modelKindName(ModelKind kind);

/** Period of the dynamic-sizing ablation's capacity oscillation. */
inline constexpr TimeUs kDynamicSizingPeriod = 20 * kUsPerMinute;

/** Configuration shared by all three models. */
struct ModelConfig
{
    ModelKind kind = ModelKind::Volatile;
    Bytes volatileBytes = 8 * kMiB;
    Bytes nvramBytes = kMiB;   ///< ignored by the volatile model
    cache::PolicyKind nvramPolicy = cache::PolicyKind::Lru;
    /** Oracle for the omniscient policy (owned by the caller). */
    const cache::NextModifyOracle *oracle = nullptr;
    /**
     * Volatile model: the delayed write-back age (Sprite's 30 s; the
     * block cleaner runs every kSweepInterval).
     */
    TimeUs writeBackAge = kWriteBackAge;
    /**
     * Ablation: give dirty blocks preference in volatile replacement
     * (Sprite's real policy; the paper's model disables it).
     */
    bool dirtyPreference = false;

    /** Optional observer of client->server writes (end-to-end runs). */
    ServerWriteSink *sink = nullptr;

    /**
     * Ablation of the paper's other §2.1 simplification: real Sprite
     * caches change size with virtual-memory pressure.  When enabled,
     * the volatile model's capacity oscillates between
     * dynamicMinFraction and 1.0 of volatileBytes with period
     * kDynamicSizingPeriod (a deterministic per-client phase keeps
     * runs reproducible).
     */
    bool dynamicSizing = false;
    double dynamicMinFraction = 0.5;

    /** Field-for-field equality (the replay grid's curve groups). */
    bool operator==(const ModelConfig &other) const = default;
};

/**
 * Visit every 4 KB block overlapping [offset, offset+length) of a
 * file.  The callback receives the block id and the in-block byte
 * range [begin, end) the operation touches.
 */
template <typename Fn>
void
forEachBlock(FileId file, Bytes offset, Bytes length, Fn &&fn)
{
    Bytes pos = offset;
    const Bytes end = offset + length;
    while (pos < end) {
        const auto index = static_cast<std::uint32_t>(pos / kBlockSize);
        const Bytes in_begin = pos % kBlockSize;
        const Bytes in_end =
            std::min<Bytes>(kBlockSize, in_begin + (end - pos));
        fn(cache::BlockId{file, index}, in_begin, in_end);
        pos += in_end - in_begin;
    }
}

/** First block index touched by [offset, offset+length), length > 0. */
inline std::uint32_t
firstBlockOf(Bytes offset)
{
    return static_cast<std::uint32_t>(offset / kBlockSize);
}

/** Last block index touched by [offset, offset+length), length > 0. */
inline std::uint32_t
lastBlockOf(Bytes offset, Bytes length)
{
    return static_cast<std::uint32_t>((offset + length - 1) /
                                      kBlockSize);
}

/** One client's cache state. */
class ClientModel
{
  public:
    ClientModel(const ModelConfig &config, Metrics &metrics,
                const FileSizeMap &sizes);
    virtual ~ClientModel() = default;

    /** Application read of [offset, offset+length), block by block. */
    void
    read(FileId file, Bytes offset, Bytes length, TimeUs now)
    {
        metrics_.appReadBytes += length;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes, Bytes) {
                         readBlock(id, now);
                     });
    }

    /** Application write of [offset, offset+length), block by block. */
    void
    write(FileId file, Bytes offset, Bytes length, TimeUs now)
    {
        metrics_.appWriteBytes += length;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes begin,
                         Bytes end) { writeBlock(id, begin, end, now); });
    }

    /** Application fsync of the file. */
    virtual void fsync(FileId file, TimeUs now) = 0;

    /**
     * Flush the file's dirty data to the server with the given cause
     * and invalidate every cached block of the file (Sprite's
     * whole-file consistency action).
     */
    virtual void recall(FileId file, WriteCause cause, TimeUs now) = 0;

    /**
     * Block-level consistency extension ([21], the paper's §2.3
     * suggestion): flush and invalidate only the dirty blocks
     * overlapping [offset, offset+length), block by block.  Returns
     * the bytes sent to the server.
     */
    Bytes
    recallRange(FileId file, Bytes offset, Bytes length, WriteCause cause,
                TimeUs now)
    {
        Bytes flushed = 0;
        forEachBlock(file, offset, length,
                     [&](const cache::BlockId &id, Bytes, Bytes) {
                         flushed += recallBlock(id, cause, now);
                     });
        return flushed;
    }

    /** The file was deleted: absorb its dirty data, drop its blocks. */
    virtual void removeFile(FileId file, TimeUs now) = 0;

    /** The file shrank to new_size: drop blocks past the new end. */
    virtual void truncate(FileId file, Bytes new_size, TimeUs now) = 0;

    /** Periodic block-cleaner tick (only the volatile model acts). */
    virtual void tick(TimeUs /*now*/) {}

    /** End of trace: flush remaining dirty data (pessimistic). */
    virtual void finish(TimeUs now) = 0;

    /** Total dirty bytes cached on this client. */
    virtual Bytes dirtyBytes() const = 0;

    /**
     * The workstation crashed and rebooted (Section 4).  Volatile
     * contents are lost; NVRAM contents survive.  Dirty bytes that
     * existed only in volatile memory are counted in
     * Metrics::lostDirtyBytes; dirty NVRAM data is recovered and
     * flushed to the server (Recovery cause) so it becomes visible
     * again, as the paper requires of a crashed client's NVRAM.
     */
    virtual void crash(TimeUs now) = 0;

    /**
     * Structural audit (nvfs::check): the model's cache memories plus
     * its own cross-memory invariants (residency disjointness, NVRAM
     * shadowing).  Throws util::AuditError on violation — catchable,
     * unlike the NVFS_REQUIRE panics on the hot paths.
     */
    virtual void auditInvariants() const = 0;

  protected:
    /** One application read of a 4 KB block. */
    virtual void readBlock(const cache::BlockId &id, TimeUs now) = 0;

    /** One application write of bytes [begin, end) of a block. */
    virtual void writeBlock(const cache::BlockId &id, Bytes begin,
                            Bytes end, TimeUs now) = 0;

    /** Flush (if dirty) and drop one block; returns bytes sent. */
    virtual Bytes recallBlock(const cache::BlockId &id, WriteCause cause,
                              TimeUs now) = 0;

    /**
     * Account one block write to the server: updates the metrics and
     * notifies the configured sink.  Returns the bytes transferred.
     */
    Bytes serverWriteBlock(const cache::BlockId &id, WriteCause cause,
                           TimeUs now);

    /** Count dirty bytes of a block as absorbed (delete/truncate). */
    void absorbBlock(const cache::CacheBlock &block, bool deleted);

    const ModelConfig config_;
    Metrics &metrics_;
    const FileSizeMap &sizes_;
};

/** Instantiate the configured model for one client. */
std::unique_ptr<ClientModel> makeClientModel(const ModelConfig &config,
                                             Metrics &metrics,
                                             const FileSizeMap &sizes,
                                             util::Rng &rng);

} // namespace nvfs::core

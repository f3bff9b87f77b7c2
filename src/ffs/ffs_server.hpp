/**
 * @file
 * An update-in-place (UNIX fast file system-style) server baseline,
 * optionally speaking a synchronous NFS-style protocol, optionally
 * fronted by a Prestoserve-style NVRAM write cache [15].
 *
 * Section 3 motivates the LFS study by contrast: "Traditional
 * distributed file systems, especially file servers running the UNIX
 * fast file system in the NFS environment, have already used NVRAM to
 * reduce disk traffic ... performance improvements of up to 50% have
 * been reported."  This module provides that comparison point: every
 * data block goes to its fixed disk location (a random seek), FFS
 * metadata updates are synchronous, and the NFS protocol makes every
 * client write synchronous too.  The Prestoserve board absorbs
 * synchronous writes into NVRAM and drains them to disk in sorted
 * batches.
 */

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.hpp"
#include "disk/scheduler.hpp"
#include "workload/server_workload.hpp"

namespace nvfs::ffs {

/** Configuration of the FFS baseline server. */
struct FfsConfig
{
    /** NFS semantics: every arriving write is synchronous. */
    bool nfsProtocol = false;
    /** Prestoserve-style NVRAM write cache (0 = none). */
    Bytes nvramBytes = 0;
    disk::DiskParams disk;
};

/** Results of one FFS run. */
struct FfsStats
{
    std::uint64_t diskWrites = 0;     ///< physical write accesses
    std::uint64_t syncOperations = 0; ///< latency-critical operations
    std::uint64_t metadataWrites = 0; ///< synchronous metadata updates
    std::uint64_t nvramAbsorbed = 0;  ///< sync ops satisfied by NVRAM
    Bytes dataBytes = 0;              ///< file data written to disk
    double diskTimeMs = 0.0;          ///< modeled disk busy time
    double syncLatencyMs = 0.0;       ///< summed sync-op latencies

    /** Mean latency seen by a synchronous operation. */
    double
    meanSyncLatencyMs() const
    {
        return syncOperations
                   ? syncLatencyMs /
                         static_cast<double>(syncOperations)
                   : 0.0;
    }
};

/**
 * Replays a workload::ServerOp stream against the update-in-place
 * baseline.  File systems are not distinguished — the baseline models
 * one FFS disk, which is all the comparison needs.
 */
class FfsServer
{
  public:
    explicit FfsServer(const FfsConfig &config = {});

    /** Replay a time-sorted op stream to completion. */
    void run(const std::vector<workload::ServerOp> &ops);

    const FfsStats &stats() const { return stats_; }

  private:
    /** Cost and count one random-placement block write. */
    void diskWriteBlock(const cache::BlockId &id, Bytes bytes);

    /** Synchronously persist a block (through NVRAM if present). */
    void syncWriteBlock(const cache::BlockId &id, Bytes bytes);

    /** Drain the NVRAM contents to disk as one sorted batch. */
    void drainNvram();

    /** Flush aged volatile blocks (local-FFS mode). */
    void sweep(TimeUs now);

    /** Fixed disk cylinder of a block (update-in-place placement). */
    std::uint32_t cylinderOf(const cache::BlockId &id) const;

    FfsConfig config_;
    disk::DiskModel disk_;
    FfsStats stats_;
    /** Volatile dirty pool (local-FFS asynchronous path). */
    cache::BlockCache dirty_{0};
    /** Prestoserve contents: block -> buffered bytes. */
    std::unordered_map<cache::BlockId, Bytes, cache::BlockIdHash>
        nvram_;
    Bytes nvramUsed_ = 0;
    TimeUs lastSweep_ = 0;
};

} // namespace nvfs::ffs

/**
 * @file
 * The Sprite file server of Section 3: one LFS per file system, a
 * volatile server cache with the 30-second delayed write-back swept
 * every 5 seconds, application fsyncs that force partial segments,
 * and (optionally) an NVRAM write buffer in front of each log.
 *
 * Without the buffer, an fsync immediately seals whatever dirty data
 * the file has into a (usually partial) segment.  With the buffer,
 * fsync'd data is safe the moment it reaches NVRAM: it rides in the
 * open segment until a whole segment accumulates, the 30-second
 * timeout writes it with the regular flush (one access instead of
 * many), or the buffer overflows.
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "lfs/cleaner.hpp"
#include "lfs/log.hpp"
#include "nvram/device.hpp"
#include "workload/server_workload.hpp"

namespace nvfs::server {

/** Server-wide configuration. */
struct ServerConfig
{
    lfs::LfsConfig lfs;         ///< per file system
    Bytes nvramBufferBytes = 0; ///< 0 = no write buffer
};

/** Per-file-system results. */
struct FsStats
{
    std::string name;
    lfs::LogStats log;
    Bytes arrivedBytes = 0;     ///< dirty data that reached the server
    std::uint64_t fsyncs = 0;
    std::uint64_t fsyncsAbsorbed = 0; ///< satisfied by NVRAM alone
    std::uint64_t bufferOverflows = 0;

    /** Disk write accesses (segment writes). */
    std::uint64_t diskWrites() const { return log.segmentsWritten; }
};

/** Replays a server op stream against per-filesystem LFS instances. */
class FileServer
{
  public:
    /**
     * @param fs_names one entry per file system (FsId = index)
     * @param config shared configuration
     */
    FileServer(std::vector<std::string> fs_names,
               const ServerConfig &config);

    /**
     * A copy of the whole server state — logs, dirty pools, NVRAM
     * ledgers, sweep clock — without the crash hook: the copy goes on
     * exactly as this server would, reporting to whatever hook
     * setCrashHook() gives it.  The crash explorer forks a replay
     * this way.
     */
    FileServer(const FileServer &other);
    FileServer &operator=(const FileServer &) = delete;
    FileServer(FileServer &&) = default;
    FileServer &operator=(FileServer &&) = default;

    /** Replay a time-sorted op stream to completion. */
    void run(const std::vector<workload::ServerOp> &ops);

    /**
     * Replay ops[first..] with step(), then drain, until `stop`
     * returns true (checked before each op and before the drain) or
     * a crash hook declares the host down.  A stopped/crashed run does
     * NOT drain: the durable state stays exactly as the crash left it
     * so recovery can be checked against it.  A positive `first`
     * resumes a server that has already stepped through ops[0, first).
     */
    void run(const std::vector<workload::ServerOp> &ops,
             const std::function<bool()> &stop, std::size_t first = 0);

    /**
     * Apply one op: advance the sweeper to its time, then absorb the
     * write or serve the fsync.  Ops must come in time order.
     */
    void step(const workload::ServerOp &op);

    /** Results after run(). */
    const FsStats &stats(FsId fs) const;
    std::size_t fsCount() const { return state_.size(); }

    /** Sum of disk write accesses over all file systems. */
    std::uint64_t totalDiskWrites() const;

    /** Sum of data bytes over all file systems. */
    Bytes totalDataBytes() const;

    /** Direct log access (tests, the Figure 7 example). */
    lfs::LfsLog &log(FsId fs);

    /**
     * The file system's NVRAM write buffer, or nullptr when the
     * server runs unbuffered.  In buffered mode every staged block is
     * put under tag (file << 32 | block) before it enters the open
     * segment and erased once its segment seals — the device is the
     * durable ledger the crash oracle checks pending data against.
     */
    nvram::NvramDevice *nvramDevice(FsId fs);

    /**
     * Attach a crash-site hook (nvfs::crash) to every log and NVRAM
     * device; nullptr detaches.  Not owned.
     */
    void setCrashHook(nvram::CrashSiteHook *hook);

    /**
     * Structural audit (nvfs::check): every file system's log and
     * dirty pool.  Throws util::AuditError on violation.
     */
    void auditInvariants() const;

  private:
    struct FsState
    {
        FsStats stats;
        lfs::LfsLog log;
        lfs::Cleaner cleaner;
        /** Volatile dirty pool (unbounded; eviction not modeled). */
        cache::BlockCache dirty{0};
        /** Write-buffer ledger (buffered mode only). */
        std::optional<nvram::NvramDevice> nvram;

        explicit FsState(const lfs::LfsConfig &config) : log(config) {}
    };

    /** Flush blocks older than the write-back age; seal as Timeout. */
    void sweep(FsState &fs, TimeUs now);

    /** Flush everything left and seal, so totals are comparable. */
    void drain();

    /** Advance the 5-second sweeper up to `now`. */
    void advanceClock(TimeUs now);

    /** Move one block, leaving the dirty pool, into the log's open
     *  segment. */
    void stageBlock(FsState &fs, const cache::CacheBlock &block);

    /** Drain staged NVRAM tags whose blocks are no longer pending
     *  (their segment sealed).  No-op on a dead host. */
    void reconcileNvram(FsState &fs);

    /** True when the attached crash hook has declared the host down. */
    bool crashed() const;

    ServerConfig config_;
    std::vector<std::unique_ptr<FsState>> state_;
    nvram::CrashSiteHook *crashHook_ = nullptr;
    TimeUs lastSweep_ = 0;
    /** Time of the last op stepped (ops must not go back). */
    TimeUs lastOp_ = 0;
};

} // namespace nvfs::server

#include "server/file_server.hpp"

#include <algorithm>

#include "nvram/crash_site.hpp"
#include "util/audit.hpp"
#include "util/log.hpp"

namespace nvfs::server {

using workload::ServerOp;

namespace {

/** NVRAM ledger tag for one file block. */
std::uint64_t
blockTag(FileId file, std::uint32_t block)
{
    return (static_cast<std::uint64_t>(file) << 32) | block;
}

} // namespace

FileServer::FileServer(std::vector<std::string> fs_names,
                       const ServerConfig &config)
    : config_(config)
{
    NVFS_REQUIRE(!fs_names.empty(), "server needs file systems");
    state_.reserve(fs_names.size());
    for (auto &name : fs_names) {
        auto fs = std::make_unique<FsState>(config_.lfs);
        fs->stats.name = std::move(name);
        if (config_.nvramBufferBytes > 0) {
            // The ledger never enforces capacity — the overflow seal
            // in run() does that against nvramBufferBytes — so give
            // the device room for any transient staging excess.
            nvram::DeviceParams params;
            params.capacity = static_cast<Bytes>(1) << 40;
            fs->nvram.emplace(params);
        }
        state_.push_back(std::move(fs));
    }
}

FileServer::FileServer(const FileServer &other)
    : config_(other.config_), lastSweep_(other.lastSweep_),
      lastOp_(other.lastOp_)
{
    state_.reserve(other.state_.size());
    for (const auto &fs : other.state_)
        state_.push_back(std::make_unique<FsState>(*fs));
    setCrashHook(nullptr);
}

nvram::NvramDevice *
FileServer::nvramDevice(FsId fs)
{
    NVFS_REQUIRE(fs < state_.size(), "bad fs id");
    auto &nvram = state_[fs]->nvram;
    return nvram ? &*nvram : nullptr;
}

void
FileServer::setCrashHook(nvram::CrashSiteHook *hook)
{
    crashHook_ = hook;
    for (auto &fs : state_) {
        fs->log.setCrashHook(hook);
        if (fs->nvram)
            fs->nvram->setCrashHook(hook);
    }
}

bool
FileServer::crashed() const
{
    return crashHook_ != nullptr && crashHook_->dead();
}

const FsStats &
FileServer::stats(FsId fs) const
{
    NVFS_REQUIRE(fs < state_.size(), "bad fs id");
    return state_[fs]->stats;
}

lfs::LfsLog &
FileServer::log(FsId fs)
{
    NVFS_REQUIRE(fs < state_.size(), "bad fs id");
    return state_[fs]->log;
}

std::uint64_t
FileServer::totalDiskWrites() const
{
    std::uint64_t total = 0;
    for (const auto &fs : state_)
        total += fs->log.stats().segmentsWritten;
    return total;
}

Bytes
FileServer::totalDataBytes() const
{
    Bytes total = 0;
    for (const auto &fs : state_)
        total += fs->log.stats().dataBytes;
    return total;
}

void
FileServer::auditInvariants() const
{
    for (const auto &fs : state_) {
        fs->log.auditInvariants();
        fs->dirty.auditInvariants();
        // Writes dirty every block they insert and staging removes it,
        // so an fsync can stage all of a file's resident blocks.
        NVFS_AUDIT_CHECK(fs->dirty.dirtyBlockCount() == fs->dirty.size(),
                         "FileServer", "clean block in the dirty pool");
    }
}

void
FileServer::stageBlock(FsState &fs, const cache::CacheBlock &block)
{
    const cache::BlockId &id = block.id;
    if (!block.isDirty())
        return;
    // Buffered mode: the block enters the NVRAM write buffer first —
    // it is durable from here on even though the segment holding it
    // has not been written (the paper's central reliability claim).
    if (fs.nvram && !crashed())
        fs.nvram->put(blockTag(id.file, id.index),
                      block.dirty.totalBytes());
    const std::size_t sealed_before = fs.log.segments().size();
    block.dirty.forEachRun([&](Bytes begin, Bytes end) {
        fs.log.writeBlockRange(id.file, id.index, begin, end);
    });
    if (fs.log.segments().size() != sealed_before)
        reconcileNvram(fs); // a Full segment auto-sealed mid-append
}

void
FileServer::reconcileNvram(FsState &fs)
{
    // On a dead host nothing drains: the ledger must keep exactly
    // what was staged at the instant of the crash.
    if (!fs.nvram || crashed())
        return;
    if (fs.log.pendingBytes() == 0) {
        fs.nvram->clear(); // every staged block's segment sealed
        return;
    }
    // An auto-seal mid-stage leaves the block being staged pending;
    // every other tag's segment sealed to disk.
    std::vector<std::uint64_t> pending;
    for (const auto &[file, block] : fs.log.pendingBlocks())
        pending.push_back(blockTag(file, block));
    std::sort(pending.begin(), pending.end());
    fs.nvram->eraseIf([&pending](std::uint64_t tag) {
        return !std::binary_search(pending.begin(), pending.end(), tag);
    });
}

void
FileServer::sweep(FsState &fs, TimeUs now)
{
    // Flush volatile blocks older than the write-back age, oldest
    // first; staging reads nothing from the pool.
    bool flushed = false;
    fs.dirty.removeDirtyOlderThan(
        now - kWriteBackAge, [&](const cache::CacheBlock &block) {
            stageBlock(fs, block);
            flushed = true;
        });
    // Seal when volatile data was flushed.  NVRAM-buffered data does
    // not age to disk on its own: "the writes would remain in the
    // NVRAM buffer until a whole segment accumulated" — it rides out
    // with the next natural flush or with an auto-sealed full segment.
    if (flushed && fs.log.seal(lfs::SealCause::Timeout))
        reconcileNvram(fs);
    // On a bounded disk the garbage collector reclaims dead segments
    // when free space runs low.
    fs.cleaner.maybeClean(fs.log);
}

void
FileServer::advanceClock(TimeUs now)
{
    while (lastSweep_ + kSweepInterval <= now) {
        lastSweep_ += kSweepInterval;
        for (auto &fs : state_)
            sweep(*fs, lastSweep_);
    }
}

void
FileServer::run(const std::vector<ServerOp> &ops)
{
    run(ops, {});
}

void
FileServer::run(const std::vector<ServerOp> &ops,
                const std::function<bool()> &stop, std::size_t first)
{
    const auto down = [&] { return (stop && stop()) || crashed(); };
    for (std::size_t i = first; i < ops.size(); ++i) {
        if (down())
            break; // the host went down mid-stream
        step(ops[i]);
    }
    if (down()) {
        // The machine is down: no drain, the durable state stays
        // exactly as the crash left it for recovery to examine.
        for (auto &fs : state_)
            fs->stats.log = fs->log.stats();
        return;
    }
    drain();
}

void
FileServer::step(const ServerOp &op)
{
    NVFS_REQUIRE(op.time >= lastOp_, "server ops out of order");
    lastOp_ = op.time;
    advanceClock(op.time);
    NVFS_REQUIRE(op.fs < state_.size(), "bad fs id in op");
    FsState &fs = *state_[op.fs];

    switch (op.kind) {
      case ServerOp::Kind::Write: {
        fs.stats.arrivedBytes += op.length;
        if (op.length == 0)
            break;
        // Scatter the range across 4 KB blocks in the dirty pool:
        // insert the runs of missing blocks, then dirty the whole
        // range, exactly the per-block insert-then-markDirty loop.
        const auto first =
            static_cast<std::uint32_t>(op.offset / kBlockSize);
        const auto last = static_cast<std::uint32_t>(
            (op.offset + op.length - 1) / kBlockSize);
        for (std::uint32_t block = first; block <= last;) {
            const auto run = fs.dirty.probeRange(op.file, block, last);
            if (!run.resident)
                fs.dirty.insertRange(op.file, block, run.end - 1,
                                     op.time);
            block = run.end;
        }
        fs.dirty.markDirtyRange(op.file, op.offset, op.length, op.time);
        break;
      }
      case ServerOp::Kind::Fsync: {
        ++fs.stats.fsyncs;
        // Every resident block is dirty (auditInvariants checks), so
        // this stages exactly the file's dirty blocks in ascending
        // order, each before it leaves the pool; nothing staged reads
        // the pool.
        bool staged = false;
        fs.dirty.removeFileBlocks(
            op.file, [&](const cache::CacheBlock &block) {
                stageBlock(fs, block);
                staged = true;
            });
        if (!staged && fs.log.pendingBytes() == 0)
            break; // nothing to make durable
        if (!fs.nvram) {
            fs.log.seal(lfs::SealCause::Fsync); // synchronous partial
            break;
        }
        // Buffered: data is durable once in NVRAM.  Only write to disk
        // if the buffer cannot hold the open segment.
        const Bytes occupancy = fs.log.pendingBytes();
        if (occupancy > config_.nvramBufferBytes) {
            ++fs.stats.bufferOverflows;
            if (fs.log.seal(lfs::SealCause::Fsync))
                reconcileNvram(fs);
        } else {
            ++fs.stats.fsyncsAbsorbed;
        }
        break;
      }
    }
}

void
FileServer::drain()
{
    for (auto &fs : state_) {
        fs->dirty.removeDirtyOlderThan(
            kTimeInfinity, [&](const cache::CacheBlock &block) {
                stageBlock(*fs, block);
            });
        if (fs->log.seal(lfs::SealCause::Shutdown))
            reconcileNvram(*fs);
        fs->cleaner.maybeClean(fs->log);
        fs->stats.log = fs->log.stats();
    }
}

} // namespace nvfs::server

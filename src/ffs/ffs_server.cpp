#include "ffs/ffs_server.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace nvfs::ffs {

using workload::ServerOp;

namespace {

/** The Prestoserve board drains once it holds this many blocks. */
constexpr std::size_t kDrainBatchBlocks = 64;

} // namespace

FfsServer::FfsServer(const FfsConfig &config)
    : config_(config), disk_(config.disk)
{
}

std::uint32_t
FfsServer::cylinderOf(const cache::BlockId &id) const
{
    // Update-in-place: a block's home never moves.  Spread files
    // across cylinder groups FFS-style with a cheap hash.
    const cache::BlockIdHash hash;
    return static_cast<std::uint32_t>(hash(id) %
                                      config_.disk.cylinders);
}

void
FfsServer::diskWriteBlock(const cache::BlockId &id, Bytes bytes)
{
    ++stats_.diskWrites;
    stats_.dataBytes += bytes;
    stats_.diskTimeMs += disk_.serviceRandom(bytes).totalMs();
    (void)id;
}

void
FfsServer::drainNvram()
{
    if (nvram_.empty())
        return;
    // Sorted (elevator) batch: the board's benefit beyond latency.
    std::vector<disk::DiskRequest> batch;
    batch.reserve(nvram_.size());
    for (const auto &[id, bytes] : nvram_) {
        batch.push_back({cylinderOf(id), bytes});
        ++stats_.diskWrites;
        stats_.dataBytes += bytes;
    }
    stats_.diskTimeMs +=
        disk::serviceBatch(disk_, batch, disk::Schedule::Elevator)
            .totalMs();
    nvram_.clear();
    nvramUsed_ = 0;
}

void
FfsServer::syncWriteBlock(const cache::BlockId &id, Bytes bytes)
{
    ++stats_.syncOperations;
    if (config_.nvramBytes == 0) {
        // The caller waits for the physical disk write.
        stats_.syncLatencyMs += disk_.serviceRandom(bytes).totalMs();
        diskWriteBlock(id, bytes);
        return;
    }
    // Prestoserve: acknowledge as soon as the data is in NVRAM.
    // Overwrites of a still-buffered block coalesce for free.
    Bytes old = 0;
    if (auto it = nvram_.find(id); it != nvram_.end())
        old = it->second;
    const Bytes merged = std::max(old, bytes);
    if (nvramUsed_ - old + merged > config_.nvramBytes) {
        drainNvram();
        old = 0;
    }
    nvram_[id] = merged;
    nvramUsed_ = nvramUsed_ - old + merged;
    ++stats_.nvramAbsorbed;
    stats_.syncLatencyMs += 0.01; // ~10 us: a bus write
    if (nvram_.size() >= kDrainBatchBlocks)
        drainNvram();
}

void
FfsServer::sweep(TimeUs now)
{
    dirty_.removeDirtyOlderThan(
        now - kWriteBackAge, [this](const cache::CacheBlock &block) {
            diskWriteBlock(block.id, block.dirtyBytes());
        });
}

void
FfsServer::run(const std::vector<ServerOp> &ops)
{
    std::unordered_map<FileId, bool> known_files;
    TimeUs last = 0;

    for (const ServerOp &op : ops) {
        NVFS_REQUIRE(op.time >= last, "server ops out of order");
        last = op.time;
        while (lastSweep_ + kSweepInterval <= op.time) {
            lastSweep_ += kSweepInterval;
            sweep(lastSweep_);
        }

        switch (op.kind) {
          case ServerOp::Kind::Write: {
            // FFS writes each file's metadata synchronously when the
            // file is created.
            if (!known_files[op.file]) {
                known_files[op.file] = true;
                ++stats_.metadataWrites;
                syncWriteBlock({op.file, 0xFFFFFFu}, 512);
            }
            Bytes begin = op.offset;
            const Bytes end = op.offset + op.length;
            while (begin < end) {
                const auto index = static_cast<std::uint32_t>(
                    begin / kBlockSize);
                const Bytes in_begin = begin % kBlockSize;
                const Bytes in_end = std::min<Bytes>(
                    kBlockSize, in_begin + (end - begin));
                const cache::BlockId id{op.file, index};
                if (config_.nfsProtocol) {
                    // NFS: the client waits for stable storage.
                    syncWriteBlock(id, in_end - in_begin);
                } else {
                    if (!dirty_.contains(id))
                        dirty_.insert(id, op.time);
                    dirty_.markDirty(id, in_begin, in_end, op.time);
                }
                begin += in_end - in_begin;
            }
            break;
          }
          case ServerOp::Kind::Fsync: {
            // Synchronous flush of the file's dirty blocks plus a
            // metadata update.
            for (const cache::BlockId &id :
                 dirty_.dirtyBlocksOfFile(op.file)) {
                const cache::CacheBlock block = dirty_.remove(id);
                syncWriteBlock(id, block.dirtyBytes());
            }
            ++stats_.metadataWrites;
            syncWriteBlock({op.file, 0xFFFFFFu}, 512);
            break;
          }
        }
    }

    // Drain everything left.
    dirty_.removeDirtyOlderThan(
        kTimeInfinity, [this](const cache::CacheBlock &block) {
            diskWriteBlock(block.id, block.dirtyBytes());
        });
    drainNvram();
}

} // namespace nvfs::ffs

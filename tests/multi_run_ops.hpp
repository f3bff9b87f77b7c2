/**
 * @file
 * A seeded op stream that leaves two or more dirty runs in one cache
 * block, shared by the tests that replay the client models.
 *
 * The standard traces dirty whole blocks or contiguous appends, so a
 * block's dirty set never holds a second run there and the spilled
 * form of util::IntervalSet would go unchecked against the oracles.
 * This stream writes small pieces at scattered offsets of a few blocks
 * per file, bridges the gaps with wider overwrites, truncates inside
 * blocks (usually between runs), and mixes in reads, deletes and
 * fsyncs across several clients.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/block_cache.hpp"
#include "prep/ops.hpp"
#include "util/rng.hpp"

namespace nvfs::testutil {

/** Generate the multi-run stream for `seed`: 3,000 ops, then End. */
inline prep::OpStream
multiRunOps(std::uint64_t seed)
{
    constexpr std::size_t kOps = 3000;
    constexpr std::uint32_t kClients = 3;
    constexpr std::uint32_t kFiles = 5;
    constexpr std::uint32_t kBlocksPerFile = 3;

    util::Rng rng(seed);
    prep::OpStream stream;
    stream.clientCount = kClients;
    TimeUs now = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
        // Short steps keep a block dirty across many writes; a rare
        // long jump lets the 5 s sweep and the 30 s write-back fire.
        now += static_cast<TimeUs>(rng.uniformInt(0, kUsPerSecond / 20));
        if (rng.chance(0.005))
            now += static_cast<TimeUs>(rng.uniformInt(5, 40)) *
                   kUsPerSecond;

        prep::Op op;
        op.time = now;
        op.client = static_cast<ClientId>(rng.uniformInt(0, kClients - 1));
        op.pid = static_cast<ProcId>(op.client * 4 + rng.uniformInt(0, 3));
        op.file = static_cast<FileId>(rng.uniformInt(1, kFiles));
        const Bytes block_start =
            rng.uniformInt(0, kBlocksPerFile - 1) * kBlockSize;

        const std::uint64_t roll = rng.uniformInt(0, 99);
        if (roll < 60) {
            // A small piece at a scattered offset: leaves gaps.
            op.type = prep::OpType::Write;
            op.offset = block_start + rng.uniformInt(0, kBlockSize - 1);
            op.length = rng.uniformInt(1, 384);
        } else if (roll < 68) {
            // Wide enough to bridge the gaps between earlier pieces.
            op.type = prep::OpType::Write;
            op.offset = block_start + rng.uniformInt(0, kBlockSize / 2);
            op.length = rng.uniformInt(kBlockSize / 4, kBlockSize);
        } else if (roll < 85) {
            op.type = prep::OpType::Read;
            op.offset = block_start + rng.uniformInt(0, kBlockSize - 1);
            op.length = rng.uniformInt(1, kBlockSize);
        } else if (roll < 91) {
            // Cut inside a block, usually between two of its runs.
            op.type = prep::OpType::Truncate;
            op.length = block_start + rng.uniformInt(1, kBlockSize - 1);
        } else if (roll < 98) {
            op.type = prep::OpType::Fsync;
        } else {
            op.type = prep::OpType::Delete;
        }
        stream.ops.push_back(op);
    }
    prep::Op end;
    end.time = now;
    end.type = prep::OpType::End;
    stream.ops.push_back(end);
    stream.duration = now;
    return stream;
}

/**
 * Replay the stream's writes, truncates, deletes and fsyncs into one
 * unbounded BlockCache per client and count the writes after which
 * the written block holds two or more dirty runs.  Each op applies to
 * every client, except that a write dirties and an fsync cleans only
 * the issuing client's copy.
 */
inline std::size_t
multiRunWrites(const prep::OpStream &stream)
{
    std::vector<cache::BlockCache> caches;
    for (std::uint32_t c = 0; c < stream.clientCount; ++c)
        caches.emplace_back(0);
    std::size_t multi_run = 0;
    for (const prep::Op op : stream.ops) {
        switch (op.type) {
        case prep::OpType::Write: {
            cache::BlockCache &cache = caches[op.client];
            Bytes pos = op.offset;
            const Bytes end = op.offset + op.length;
            while (pos < end) {
                const cache::BlockId id{
                    op.file, static_cast<std::uint32_t>(pos / kBlockSize)};
                const Bytes start = id.byteOffset();
                const Bytes piece_end = std::min(end, start + kBlockSize);
                if (!cache.contains(id))
                    cache.insert(id, op.time);
                cache.markDirty(id, pos - start, piece_end - start, op.time);
                if (cache.peek(id)->dirty.runCount() >= 2)
                    ++multi_run;
                pos = piece_end;
            }
            break;
        }
        case prep::OpType::Truncate:
            for (cache::BlockCache &cache : caches) {
                for (const cache::BlockId &id : cache.blocksOfFile(op.file)) {
                    if (id.byteOffset() >= op.length)
                        cache.remove(id);
                    else if (id.byteOffset() + kBlockSize > op.length)
                        cache.trimDirty(id, op.length - id.byteOffset(),
                                        kBlockSize);
                }
            }
            break;
        case prep::OpType::Delete:
            for (cache::BlockCache &cache : caches)
                cache.removeFileBlocks(op.file);
            break;
        case prep::OpType::Fsync: {
            cache::BlockCache &cache = caches[op.client];
            for (const cache::BlockId &id : cache.dirtyBlocksOfFile(op.file))
                cache.markClean(id);
            break;
        }
        default:
            break;
        }
    }
    for (const cache::BlockCache &cache : caches)
        cache.auditInvariants();
    return multi_run;
}

} // namespace nvfs::testutil

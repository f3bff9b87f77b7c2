/**
 * @file
 * The client replay protocol: one dispatch loop behind every Section 2
 * simulator.
 *
 * replayOps walks a processed op stream and drives a set of per-client
 * caches through Sprite's protocol: open-time callbacks (whole-file,
 * or block-level as the §2.3 extension), the concurrent write-sharing
 * bypass, delete/truncate/fsync, process migration, injected client
 * crashes, the 5-second block-cleaner clock, optional invariant
 * audits, and the end-of-trace flush.  It is templated on the client
 * type, so ClusterSim replays virtual ClientModels and the curve
 * engine replays its multi-size clients through the same code with no
 * per-op indirection; every LRU cell replays on the curve engine (a
 * lone cell as a one-size pass), the rest on ClusterSim.  A protocol
 * change is made here, once.
 */

#pragma once

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/client/client_model.hpp"
#include "core/client/server_state.hpp"
#include "prep/ops.hpp"
#include "util/env.hpp"
#include "util/flat_map.hpp"
#include "util/log.hpp"

namespace nvfs::core {

/** Everything a client simulation run needs. */
struct ClusterConfig
{
    ModelConfig model;
    std::uint64_t seed = 42; ///< random replacement policy seed

    /**
     * Consistency-protocol extension ([21], §2.3): instead of
     * recalling a file's whole dirty set when another client opens
     * it, flush only the dirty blocks that client actually touches.
     */
    bool blockLevelCallbacks = false;

    /**
     * Fault injection (Section 4): (time, client) pairs, sorted by
     * time.  At each point the client crashes and reboots — volatile
     * contents are lost, NVRAM contents are recovered.
     */
    std::vector<std::pair<TimeUs, ClientId>> crashes;

    /**
     * nvfs::check: audit every client model's invariants after this
     * many dispatched ops (0 = take the interval from the NVFS_AUDIT
     * environment variable; unset there too means never).  Audits
     * throw util::AuditError, which propagates out of the replay.
     */
    std::uint64_t auditEvery = 0;
};

/**
 * Replay `ops` against `clients` (client id = index) under `config`'s
 * protocol options, then finish every client.  `sizes` is the
 * file-size table the clients were built over; the replay maintains
 * it.  I/O to a file with caching disabled bypasses the clients and is
 * charged to every Metrics in `bypass` (ClusterSim's one, or one per
 * curve size) and, block by block, to config.model.sink.  Every op
 * reaches the clients as it stands.
 *
 * Client provides ClientModel's operations as (non-virtual or
 * virtual) members: read, write, fsync, recall, recallRange,
 * removeFile, truncate, tick, crash, finish and auditInvariants.
 */
template <typename Client>
void
replayOps(const prep::OpStream &ops, const ClusterConfig &config,
          std::vector<std::unique_ptr<Client>> &clients,
          FileSizeMap &sizes, std::span<Metrics> bypass)
{
    using prep::OpType;

    ConsistencyEngine engine;
    // (client, pid) that last wrote each file, for migration.
    util::FlatMap<FileId, std::pair<ClientId, ProcId>,
                  util::SplitMix64Hash>
        last_writer_pid;
    // Client holding dirty data per file; kept only with block-level
    // callbacks, the one reader.
    util::FlatMap<FileId, ClientId, util::SplitMix64Hash> dirty_owner;
    const std::uint64_t audit_every =
        config.auditEvery != 0
            ? config.auditEvery
            : static_cast<std::uint64_t>(util::envInt(
                  "NVFS_AUDIT", 0, 0,
                  std::numeric_limits<std::int64_t>::max()));
    std::uint64_t ops_since_audit = 0;
    std::size_t next_crash = 0;
    TimeUs last_sweep = 0;
    TimeUs last = 0;

    // The block-level callback target for `client` touching `file`,
    // or nullptr when there is none.
    const auto other_owner = [&](FileId file,
                                 ClientId client) -> Client * {
        if (!config.blockLevelCallbacks)
            return nullptr;
        const ClientId *owner = dirty_owner.find(file);
        if (owner == nullptr || *owner == client ||
            *owner >= clients.size())
            return nullptr;
        return clients[*owner].get();
    };

    // Column-streaming replay: the dispatch path reads only the time
    // and type columns sequentially; each case pulls just the columns
    // it needs, so the loop moves through a few homogeneous arrays
    // instead of striding over full Op records.
    const prep::OpColumns &col = ops.ops;
    const std::size_t count = col.size();

    for (std::size_t i = 0; i < count; ++i) {
        const TimeUs now = col.time[i];
        NVFS_REQUIRE(now >= last, "ops out of order");
        last = now;
        while (last_sweep + kSweepInterval <= now) {
            last_sweep += kSweepInterval;
            for (auto &client : clients)
                client->tick(last_sweep);
        }

        // Injected client crashes (Section 4 fault injection).
        while (next_crash < config.crashes.size() &&
               config.crashes[next_crash].first <= now) {
            const auto [when, victim] = config.crashes[next_crash++];
            if (victim < clients.size()) {
                clients[victim]->crash(when);
                // The recovered/lost data is no longer dirty anywhere.
                dirty_owner.eraseIf([&](FileId, ClientId owner) {
                    return owner == victim;
                });
            }
        }

        const FileId file = col.file[i];
        switch (col.type[i]) {
          case OpType::Open: {
            const OpenActions actions = engine.onOpen(
                col.client[i], col.pid[i], file,
                (col.openFlags[i] & prep::kOpenForWrite) != 0);
            if (actions.recallFrom != kNoClient &&
                actions.recallFrom < clients.size() &&
                !config.blockLevelCallbacks) {
                // Whole-file recall (Sprite's protocol).  With
                // block-level callbacks the flush is deferred until
                // the opener actually touches the data.
                clients[actions.recallFrom]->recall(
                    file, WriteCause::Callback, now);
                dirty_owner.erase(file);
            }
            if (actions.disableCaching) {
                // Flush + invalidate everywhere (sharing disabled).
                for (auto &client : clients)
                    client->recall(file, WriteCause::Callback, now);
                dirty_owner.erase(file);
            }
            break;
          }
          case OpType::Close:
            engine.onClose(col.client[i], col.pid[i], file);
            break;
          case OpType::Read: {
            const ClientId client = col.client[i];
            const Bytes offset = col.offset[i];
            NVFS_REQUIRE(client < clients.size(), "bad client");
            const Bytes length = col.length[i];
            auto &size = sizes[file];
            size = std::max(size, offset + length);
            if (engine.cachingDisabled(file)) {
                // Bypass: straight from the server.
                for (Metrics &m : bypass) {
                    m.appReadBytes += length;
                    m.serverReadBytes += length;
                }
            } else {
                if (Client *owner = other_owner(file, client)) {
                    owner->recallRange(file, offset, length,
                                       WriteCause::Callback, now);
                }
                clients[client]->read(file, offset, length, now);
            }
            break;
          }
          case OpType::Write: {
            const ClientId client = col.client[i];
            const Bytes offset = col.offset[i];
            NVFS_REQUIRE(client < clients.size(), "bad client");
            const Bytes length = col.length[i];
            auto &size = sizes[file];
            size = std::max(size, offset + length);
            if (engine.cachingDisabled(file)) {
                // Bypass: write-through to the server.
                for (Metrics &m : bypass) {
                    m.appWriteBytes += length;
                    m.addServerWrite(WriteCause::Concurrent, length);
                }
                if (ServerWriteSink *sink = config.model.sink) {
                    forEachBlock(file, offset, length,
                                 [&](const cache::BlockId &id,
                                     Bytes begin, Bytes end) {
                                     sink->onServerWrite(
                                         now, id.file, id.index,
                                         end - begin,
                                         WriteCause::Concurrent);
                                 });
                }
            } else {
                if (Client *owner = other_owner(file, client)) {
                    // A new writer takes over: the old writer's whole
                    // dirty set must reach the server first.
                    owner->recall(file, WriteCause::Callback, now);
                }
                clients[client]->write(file, offset, length, now);
                engine.onWrite(client, file);
                last_writer_pid[file] = {client, col.pid[i]};
                if (config.blockLevelCallbacks)
                    dirty_owner[file] = client;
            }
            break;
          }
          case OpType::Delete:
            engine.onDelete(file);
            for (auto &client : clients)
                client->removeFile(file, now);
            sizes.erase(file);
            last_writer_pid.erase(file);
            dirty_owner.erase(file);
            break;
          case OpType::Truncate: {
            const Bytes length = col.length[i];
            for (auto &client : clients)
                client->truncate(file, length, now);
            Bytes *size = sizes.find(file);
            if (size != nullptr)
                *size = std::min(*size, length);
            break;
          }
          case OpType::Fsync: {
            const ClientId client = col.client[i];
            if (client < clients.size() &&
                !engine.cachingDisabled(file)) {
                clients[client]->fsync(file, now);
            }
            break;
          }
          case OpType::Migrate: {
            const ClientId client = col.client[i];
            const ProcId pid = col.pid[i];
            if (client >= clients.size())
                break;
            // Flush the dirty data of every file this process last
            // wrote; in Sprite the migrated process's files must be
            // visible at the target host.  Victims are sorted so the
            // flush order is independent of hash-table layout.
            std::vector<FileId> victims;
            last_writer_pid.forEach(
                [&](FileId written,
                    const std::pair<ClientId, ProcId> &writer) {
                    if (writer.first == client && writer.second == pid)
                        victims.push_back(written);
                });
            std::sort(victims.begin(), victims.end());
            for (const FileId victim : victims) {
                clients[client]->recall(victim, WriteCause::Migration,
                                        now);
                engine.clearWriter(victim, client);
                last_writer_pid.erase(victim);
                dirty_owner.erase(victim);
            }
            break;
          }
          case OpType::End:
            break;
        }

        // nvfs::check: sweep every model's invariants each N ops.
        if (audit_every != 0 && ++ops_since_audit >= audit_every) {
            ops_since_audit = 0;
            for (const auto &client : clients)
                client->auditInvariants();
        }
    }

    for (auto &client : clients)
        client->finish(last);
}

} // namespace nvfs::core

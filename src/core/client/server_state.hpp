/**
 * @file
 * Sprite's server-side cache-consistency state machine.
 *
 * The server remembers the last client to write each file.  When a
 * different client opens the file, the server recalls any dirty data
 * still in the last writer's cache.  When two or more clients have a
 * file open simultaneously and at least one is writing — concurrent
 * write-sharing — the server disables client caching on the file until
 * every client has closed it; all I/O then bypasses the caches.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace nvfs::core {

/** Sentinel: no client. */
inline constexpr ClientId kNoClient = 0xFFFF;

/** What the caller must do after reporting an open. */
struct OpenActions
{
    /** Recall dirty data of the file from this client first. */
    ClientId recallFrom = kNoClient;
    /**
     * Concurrent write-sharing began: every client must flush and
     * invalidate the file, and caching stays off until the last close.
     */
    bool disableCaching = false;
};

/** Per-file consistency bookkeeping. */
class ConsistencyEngine
{
  public:
    /**
     * A client opened a file.
     * @return the actions the cluster simulator must apply
     */
    OpenActions onOpen(ClientId client, ProcId pid, FileId file,
                       bool for_write);

    /** A client closed a file (mode resolved from the open stack). */
    void onClose(ClientId client, ProcId pid, FileId file);

    /** A client wrote the file through its cache. */
    void onWrite(ClientId client, FileId file);

    /** The client's dirty data for the file is gone (flushed/dead). */
    void clearWriter(FileId file, ClientId client);

    /** The file was deleted. */
    void onDelete(FileId file);

    /** True while client caching is disabled for the file. */
    bool cachingDisabled(FileId file) const;

    /** Last writer of a file (kNoClient if none/flushed). */
    ClientId lastWriter(FileId file) const;

  private:
    /** One open of the file, for close() to pop. */
    struct Handle
    {
        ClientId client;
        ProcId pid;
        bool forWrite;
    };

    /**
     * Entries are never erased, so the vectors keep their capacity and
     * an open or close allocates nothing once a file's concurrency has
     * been seen.  Both hold only the file's outstanding opens and are
     * scanned linearly.
     */
    struct FileState
    {
        ClientId lastWriter = kNoClient;
        bool cachingDisabled = false;
        int writeHandles = 0;
        /** Open handle counts per client, each positive, any order. */
        std::vector<std::pair<ClientId, int>> openers;
        /** Open handles in open order; a (client, pid)'s handles in
         *  it are that process's stack of open modes. */
        std::vector<Handle> handles;
    };

    util::FlatMap<FileId, FileState, util::SplitMix64Hash> files_;
};

} // namespace nvfs::core

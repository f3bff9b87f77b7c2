#include "core/client/server_state.hpp"

#include <algorithm>

namespace nvfs::core {

OpenActions
ConsistencyEngine::onOpen(ClientId client, ProcId pid, FileId file,
                          bool for_write)
{
    OpenActions actions;
    FileState &state = files_[file];

    // Recall dirty data left behind by a different last writer.
    if (state.lastWriter != kNoClient && state.lastWriter != client) {
        actions.recallFrom = state.lastWriter;
        state.lastWriter = kNoClient;
    }

    const auto opener = std::find_if(
        state.openers.begin(), state.openers.end(),
        [&](const auto &entry) { return entry.first == client; });
    if (opener != state.openers.end())
        ++opener->second;
    else
        state.openers.emplace_back(client, 1);
    if (for_write)
        ++state.writeHandles;
    state.handles.push_back({client, pid, for_write});

    // Concurrent write-sharing: >= 2 clients, >= 1 writer.
    if (!state.cachingDisabled && state.openers.size() >= 2 &&
        state.writeHandles >= 1) {
        state.cachingDisabled = true;
        actions.disableCaching = true;
    }
    return actions;
}

void
ConsistencyEngine::onClose(ClientId client, ProcId pid, FileId file)
{
    FileState *found = files_.find(file);
    if (found == nullptr)
        return;
    FileState &state = *found;

    // Pop this process's most recent open of the file.
    bool was_writer = false;
    const auto handle = std::find_if(
        state.handles.rbegin(), state.handles.rend(),
        [&](const Handle &h) { return h.client == client && h.pid == pid; });
    if (handle != state.handles.rend()) {
        was_writer = handle->forWrite;
        state.handles.erase(std::next(handle).base());
    }

    const auto opener = std::find_if(
        state.openers.begin(), state.openers.end(),
        [&](const auto &entry) { return entry.first == client; });
    if (opener != state.openers.end() && --opener->second <= 0) {
        *opener = state.openers.back();
        state.openers.pop_back();
    }
    if (was_writer && state.writeHandles > 0)
        --state.writeHandles;

    // Caching resumes once everyone has closed the file.
    if (state.cachingDisabled && state.openers.empty()) {
        state.cachingDisabled = false;
        // Data went straight to the server while disabled.
        state.lastWriter = kNoClient;
    }
}

void
ConsistencyEngine::onWrite(ClientId client, FileId file)
{
    FileState &state = files_[file];
    if (!state.cachingDisabled)
        state.lastWriter = client;
}

void
ConsistencyEngine::clearWriter(FileId file, ClientId client)
{
    FileState *state = files_.find(file);
    if (state != nullptr && state->lastWriter == client)
        state->lastWriter = kNoClient;
}

void
ConsistencyEngine::onDelete(FileId file)
{
    FileState *state = files_.find(file);
    if (state == nullptr)
        return;
    // Openers may legitimately still hold handles to a deleted file;
    // keep the open bookkeeping, just forget the writer.
    state->lastWriter = kNoClient;
}

bool
ConsistencyEngine::cachingDisabled(FileId file) const
{
    const FileState *state = files_.find(file);
    return state != nullptr && state->cachingDisabled;
}

ClientId
ConsistencyEngine::lastWriter(FileId file) const
{
    const FileState *state = files_.find(file);
    return state == nullptr ? kNoClient : state->lastWriter;
}

} // namespace nvfs::core

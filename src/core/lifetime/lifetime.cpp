#include "core/lifetime/lifetime.hpp"

#include <limits>
#include <unordered_map>
#include <vector>

#include "core/client/server_state.hpp"
#include "util/interval_set.hpp"
#include "util/log.hpp"

namespace nvfs::core {

using prep::OpType;

std::string
byteFateName(ByteFate fate)
{
    switch (fate) {
      case ByteFate::Overwritten: return "overwritten";
      case ByteFate::Deleted: return "deleted";
      case ByteFate::CalledBack: return "called back";
      case ByteFate::Concurrent: return "concurrent write";
      case ByteFate::Remaining: return "remaining";
      case ByteFate::Count_: break;
    }
    return "unknown";
}

double
LifetimeResult::netWriteTrafficPct(TimeUs delay) const
{
    if (totalWritten == 0)
        return 0.0;
    Bytes absorbed = 0;
    for (const ByteRun &run : runs) {
        if (run.fate != ByteFate::Overwritten &&
            run.fate != ByteFate::Deleted) {
            continue;
        }
        if (run.death - run.birth <= delay)
            absorbed += run.length();
    }
    return 100.0 *
           static_cast<double>(totalWritten - absorbed) /
           static_cast<double>(totalWritten);
}

LifetimeResult
analyzeLifetimes(const prep::OpStream &ops)
{
    const prep::OpColumns &col = ops.ops;
    LifetimeResult result;
    ConsistencyEngine engine;

    // Per file: live dirty byte runs tagged with their birth time.
    std::unordered_map<FileId, util::IntervalMap<TimeUs>> dirty;
    // For migrations: (client, pid) that last wrote each file.
    std::unordered_map<FileId, std::pair<ClientId, ProcId>> lastWriter;

    auto record = [&](FileId file, Bytes begin, Bytes end, TimeUs birth,
                      TimeUs death, ByteFate fate) {
        result.runs.push_back({file, begin, end, birth, death, fate});
        result.byFate[static_cast<std::size_t>(fate)] += end - begin;
    };

    // Flush every dirty run of a file (callback / migration).
    auto flushFile = [&](FileId file, TimeUs now) {
        auto it = dirty.find(file);
        if (it == dirty.end())
            return;
        it->second.clear([&](Bytes begin, Bytes end,
                             const TimeUs &birth) {
            record(file, begin, end, birth, now, ByteFate::CalledBack);
        });
        dirty.erase(it);
        lastWriter.erase(file);
    };

    // Column scan: the dispatch path streams the time/type/file
    // columns; each case pulls only what it needs (byte-run extents
    // go straight into the IntervalMap — no per-block work anywhere).
    for (std::size_t i = 0; i < col.size(); ++i) {
        const TimeUs time = col.time[i];
        const FileId file = col.file[i];
        switch (col.type[i]) {
          case OpType::Open: {
            const OpenActions actions = engine.onOpen(
                col.client[i], col.pid[i], file,
                (col.openFlags[i] & prep::kOpenForWrite) != 0);
            if (actions.recallFrom != kNoClient)
                flushFile(file, time);
            if (actions.disableCaching)
                flushFile(file, time);
            break;
          }
          case OpType::Close:
            engine.onClose(col.client[i], col.pid[i], file);
            break;
          case OpType::Write: {
            const Bytes offset = col.offset[i];
            const Bytes length = col.length[i];
            result.totalWritten += length;
            if (engine.cachingDisabled(file)) {
                record(file, offset, offset + length, time, time,
                       ByteFate::Concurrent);
                break;
            }
            dirty[file].assign(
                offset, offset + length, time,
                [&](Bytes begin, Bytes end, const TimeUs &birth) {
                    record(file, begin, end, birth, time,
                           ByteFate::Overwritten);
                });
            engine.onWrite(col.client[i], file);
            lastWriter[file] = {col.client[i], col.pid[i]};
            break;
          }
          case OpType::Delete: {
            auto it = dirty.find(file);
            if (it != dirty.end()) {
                it->second.clear([&](Bytes begin, Bytes end,
                                     const TimeUs &birth) {
                    record(file, begin, end, birth, time,
                           ByteFate::Deleted);
                });
                dirty.erase(it);
            }
            lastWriter.erase(file);
            engine.onDelete(file);
            break;
          }
          case OpType::Truncate: {
            auto it = dirty.find(file);
            if (it != dirty.end()) {
                it->second.erase(
                    col.length[i], std::numeric_limits<Bytes>::max(),
                    [&](Bytes begin, Bytes end, const TimeUs &birth) {
                        record(file, begin, end, birth, time,
                               ByteFate::Deleted);
                    });
            }
            break;
          }
          case OpType::Fsync:
            // Absorbed: the infinite NVRAM is already permanent.
            break;
          case OpType::Migrate: {
            std::vector<FileId> victims;
            for (const auto &[written, writer] : lastWriter) {
                if (writer.first == col.client[i] &&
                    writer.second == col.pid[i]) {
                    victims.push_back(written);
                }
            }
            for (FileId victim : victims)
                flushFile(victim, time);
            break;
          }
          case OpType::Read:
          case OpType::End:
            break;
        }
    }

    // End of trace: whatever is still dirty would eventually have to
    // be written back (the paper's pessimistic accounting).
    for (auto &[file, map] : dirty) {
        const FileId f = file;
        map.clear([&](Bytes begin, Bytes end, const TimeUs &birth) {
            record(f, begin, end, birth, kTimeInfinity,
                   ByteFate::Remaining);
        });
    }
    return result;
}

} // namespace nvfs::core

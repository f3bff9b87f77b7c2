#include "core/lifetime/next_modify.hpp"

#include <algorithm>
#include <limits>

#include "core/client/client_model.hpp"

namespace nvfs::core {

NextModifyIndex::NextModifyIndex(const prep::OpStream &ops)
{
    const prep::OpColumns &col = ops.ops;
    // Column scan consuming extents: only time/type/file/offset/length
    // are read, one hash probe per op (not per 4 KB block).  Writes
    // append to a dense per-file table indexed by block number;
    // Delete/Truncate walk the file's live block-index *runs* instead
    // of an element-wise set.
    for (std::size_t i = 0; i < col.size(); ++i) {
        const TimeUs time = col.time[i];
        const FileId file = col.file[i];
        switch (col.type[i]) {
          case prep::OpType::Write: {
            const Bytes length = col.length[i];
            if (length == 0)
                break;
            const std::uint32_t first = firstBlockOf(col.offset[i]);
            const std::uint32_t last =
                lastBlockOf(col.offset[i], length);
            FileTimes &times = files_[file];
            if (times.blocks.size() <= last)
                times.blocks.resize(std::size_t{last} + 1);
            for (std::uint32_t b = first; b <= last; ++b) {
                if (times.blocks[b].empty())
                    ++blockCount_;
                times.blocks[b].push_back(time);
            }
            times.live.insert(first, Bytes{last} + 1);
            break;
          }
          case prep::OpType::Delete: {
            FileTimes *times = files_.find(file);
            if (times == nullptr || times->live.empty())
                break;
            for (const util::ByteRange &run : times->live.runs()) {
                for (Bytes b = run.begin; b < run.end; ++b)
                    times->blocks[static_cast<std::size_t>(b)]
                        .push_back(time);
            }
            times->live.clear();
            break;
          }
          case prep::OpType::Truncate: {
            FileTimes *times = files_.find(file);
            if (times == nullptr || times->live.empty())
                break;
            const Bytes first_dead = blocksCovering(col.length[i]);
            for (const util::ByteRange &run : times->live.runs()) {
                for (Bytes b = std::max(run.begin, first_dead);
                     b < run.end; ++b) {
                    times->blocks[static_cast<std::size_t>(b)]
                        .push_back(time);
                }
            }
            times->live.erase(first_dead,
                              std::numeric_limits<Bytes>::max());
            break;
          }
          default:
            break;
        }
    }

    // Ops are time-sorted, so each vector is already sorted; fix any
    // inversions cheaply to stay robust to unsorted input.
    files_.forEach([](const FileId &, FileTimes &times) {
        for (std::vector<TimeUs> &vec : times.blocks) {
            if (!std::is_sorted(vec.begin(), vec.end()))
                std::sort(vec.begin(), vec.end());
        }
    });
}

TimeUs
NextModifyIndex::nextModify(const cache::BlockId &id, TimeUs after) const
{
    const FileTimes *times = files_.find(id.file);
    if (times == nullptr || id.index >= times->blocks.size())
        return kTimeInfinity;
    const std::vector<TimeUs> &vec = times->blocks[id.index];
    auto pos = std::upper_bound(vec.begin(), vec.end(), after);
    return pos == vec.end() ? kTimeInfinity : *pos;
}

} // namespace nvfs::core

#include "prep/characterize.hpp"

#include <map>
#include <tuple>
#include <unordered_map>

#include "util/table.hpp"
#include "util/units.hpp"

namespace nvfs::prep {

namespace {

struct OpenInfo
{
    TimeUs openedAt;
    bool sawRead = false;
    bool sawWrite = false;
};

/** Open handles keyed (file, client, pid): one file's handles by one
 *  client are adjacent, so a read or write marks them in one range. */
using OpenMap = std::map<std::tuple<FileId, ClientId, ProcId>, OpenInfo>;

/** Every open handle of `client` on `file`, whatever its pid. */
template <typename Fn>
void
forEachHandle(OpenMap &open, FileId file, ClientId client, Fn &&fn)
{
    for (auto it = open.lower_bound({file, client, ProcId{0}});
         it != open.end() && std::get<0>(it->first) == file &&
         std::get<1>(it->first) == client;
         ++it)
        fn(it->second);
}

} // namespace

WorkloadProfile
characterize(const prep::OpStream &ops)
{
    WorkloadProfile profile;
    std::unordered_map<FileId, Bytes> sizes;
    // Sequentiality: last end-offset per (file, client).
    std::map<std::pair<FileId, ClientId>, Bytes> last_read_end;
    std::map<std::pair<FileId, ClientId>, Bytes> last_write_end;
    OpenMap open;
    std::uint64_t seq_reads = 0, reads = 0;
    std::uint64_t seq_writes = 0, writes = 0;
    std::uint64_t ro_opens = 0, wo_opens = 0, closes = 0;

    for (const prep::Op op : ops.ops) {
        switch (op.type) {
          case prep::OpType::Read: {
            ++reads;
            profile.readSize.add(static_cast<double>(op.length));
            profile.readBytes += op.length;
            auto &last = last_read_end[{op.file, op.client}];
            if (op.offset == last && last != 0)
                ++seq_reads;
            last = op.offset + op.length;
            forEachHandle(open, op.file, op.client,
                          [](OpenInfo &info) { info.sawRead = true; });
            break;
          }
          case prep::OpType::Write: {
            ++writes;
            profile.writeSize.add(static_cast<double>(op.length));
            profile.writeBytes += op.length;
            auto &size = sizes[op.file];
            size = std::max(size, op.offset + op.length);
            auto &last = last_write_end[{op.file, op.client}];
            if (op.offset == last && last != 0)
                ++seq_writes;
            last = op.offset + op.length;
            forEachHandle(open, op.file, op.client,
                          [](OpenInfo &info) { info.sawWrite = true; });
            break;
          }
          case prep::OpType::Open:
            ++profile.opens;
            open[{op.file, op.client, op.pid}] = {op.time};
            break;
          case prep::OpType::Close: {
            auto it = open.find({op.file, op.client, op.pid});
            if (it != open.end()) {
                ++closes;
                profile.openSeconds.add(
                    static_cast<double>(op.time - it->second.openedAt) /
                    kUsPerSecond);
                if (it->second.sawRead && !it->second.sawWrite)
                    ++ro_opens;
                if (it->second.sawWrite && !it->second.sawRead)
                    ++wo_opens;
                open.erase(it);
            }
            break;
          }
          case prep::OpType::Delete:
            ++profile.deletes;
            sizes.erase(op.file);
            break;
          case prep::OpType::Fsync:
            ++profile.fsyncs;
            break;
          default:
            break;
        }
    }
    // Sizes are whole bytes, so their sums are exact in any order.
    for (const auto &[file, size] : sizes)
        profile.fileSize.add(static_cast<double>(size));

    profile.sequentialReadFraction =
        reads ? static_cast<double>(seq_reads) /
                    static_cast<double>(reads)
              : 0.0;
    profile.sequentialWriteFraction =
        writes ? static_cast<double>(seq_writes) /
                     static_cast<double>(writes)
               : 0.0;
    profile.readOnlyOpenFraction =
        closes ? static_cast<double>(ro_opens) /
                     static_cast<double>(closes)
               : 0.0;
    profile.writeOnlyOpenFraction =
        closes ? static_cast<double>(wo_opens) /
                     static_cast<double>(closes)
               : 0.0;
    return profile;
}

std::string
WorkloadProfile::render(const std::string &title) const
{
    util::TextTable table({"metric", "value"});
    table.addRow({"read : write bytes",
                  util::format("%.2f : 1", readWriteRatio())});
    table.addRow({"mean read size",
                  util::formatBytes(static_cast<Bytes>(
                      readSize.mean()))});
    table.addRow({"mean write size",
                  util::formatBytes(static_cast<Bytes>(
                      writeSize.mean()))});
    table.addRow({"mean file size",
                  util::formatBytes(static_cast<Bytes>(
                      fileSize.mean()))});
    table.addRow({"max file size",
                  util::formatBytes(static_cast<Bytes>(
                      fileSize.max()))});
    table.addRow({"mean open duration",
                  util::format("%.2f s", openSeconds.mean())});
    table.addRow({"sequential reads",
                  util::format("%.0f %%",
                               100.0 * sequentialReadFraction)});
    table.addRow({"sequential writes",
                  util::format("%.0f %%",
                               100.0 * sequentialWriteFraction)});
    table.addRow({"read-only opens",
                  util::format("%.0f %%",
                               100.0 * readOnlyOpenFraction)});
    table.addRow({"write-only opens",
                  util::format("%.0f %%",
                               100.0 * writeOnlyOpenFraction)});
    table.addRow({"opens", util::format("%llu",
                                        static_cast<unsigned long long>(
                                            opens))});
    table.addRow({"deletes",
                  util::format("%llu", static_cast<unsigned long long>(
                                           deletes))});
    table.addRow({"fsyncs",
                  util::format("%llu", static_cast<unsigned long long>(
                                           fsyncs))});
    return table.render(title);
}

} // namespace nvfs::prep

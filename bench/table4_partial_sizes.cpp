/**
 * @file
 * Table 4: kilobytes of file data written per partial segment, per
 * fsync-forced partial, and each file system's share of the total
 * write traffic — plus the paper's disk-space-overhead estimate
 * (metadata + summary blocks as a fraction of partial segments).
 */

#include "bench_util.hpp"

using namespace nvfs;

namespace {

/** Published Table 4 values (KB/fsync-partial, KB/partial, % total). */
struct PaperRow
{
    double kbFsync;   ///< < 0 = not applicable (no fsyncs)
    double kbPartial;
    double totalPct;
};

constexpr PaperRow kPaper[] = {
    {7.9, 6.6, 49.3},   // /user6
    {45.0, 113.0, 20.4}, // /local
    {-1.0, 53.0, 19.0},  // /swap1
    {20.3, 14.9, 3.4},   // /user1
    {18.7, 23.4, 2.2},   // /user4
    {55.0, 21.3, 5.0},   // /sprite/src/kernel
    {-1.0, -1.0, 0.3},   // /user2 (not reported)
    {-1.0, -1.0, 0.1},   // /scratch4 (not reported)
};

std::string
kb(double bytes)
{
    return util::format("%.1f", bytes / 1024.0);
}

std::string
paperKb(double value)
{
    return value < 0 ? "n/a" : util::format("%.1f", value);
}

} // namespace

namespace nvfs::bench {

std::string
table4_partial_sizes()
{
    std::string out = bench::header(
        "Table 4: average file data per partial segment and share of "
        "write traffic",
        "partial segments average 8 KB (/user6) to 55 KB "
        "(/sprite/src/kernel); /user6 carries ~49% of write traffic");

    const double scale = core::benchScale();
    const auto result = core::runServerSim(24 * kUsPerHour, scale, 0);

    util::TextTable table({"File system", "KB/fsync partial", "paper",
                           "KB/partial", "paper", "% total write",
                           "paper", "overhead %"});
    for (std::size_t i = 0; i < result.fs.size(); ++i) {
        const auto &fs = result.fs[i];
        const auto &log = fs.log;
        const double kb_fsync =
            log.partialsByFsync
                ? static_cast<double>(log.fsyncDataBytes) /
                      static_cast<double>(log.partialsByFsync)
                : -1.0;
        const double kb_partial =
            log.partialSegments
                ? static_cast<double>(log.partialDataBytes) /
                      static_cast<double>(log.partialSegments)
                : -1.0;
        // Disk space lost to metadata + summary, as a fraction of all
        // bytes this file system wrote to disk.
        const double overhead = util::percent(
            static_cast<double>(log.metadataBytes + log.summaryBytes),
            static_cast<double>(log.diskBytes()));
        table.addRow({fs.name,
                      kb_fsync < 0 ? "n/a" : kb(kb_fsync),
                      paperKb(kPaper[i].kbFsync),
                      kb_partial < 0 ? "n/a" : kb(kb_partial),
                      paperKb(kPaper[i].kbPartial),
                      bench::pct(util::percent(
                          static_cast<double>(log.dataBytes),
                          static_cast<double>(result.totalDataBytes))),
                      bench::pct(kPaper[i].totalPct),
                      bench::pct(overhead)});
    }
    out += table.render() + "\n";
    out += "paper: metadata overhead approaches one third of each "
           "partial segment on /user6\nand ~8% on "
           "/sprite/src/kernel; full segments cost < 1%.\n";
    return out;
}

} // namespace nvfs::bench

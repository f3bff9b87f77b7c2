/**
 * @file
 * Section 3's disk-space/garbage-collection claim: partial segments
 * waste up to a third of their space on metadata and summary blocks,
 * "the lost disk space is not reclaimed until LFS's garbage collector
 * runs ... Using NVRAM would eliminate partial segment writes and
 * would therefore reduce the disk space overhead to ... less than 1%
 * ... This would improve disk utilization by 5 - 33% and reduce
 * garbage collection load on the server CPU."
 *
 * Runs the server workload on a *bounded* disk so the cleaner must
 * work, with and without the write buffer, and reports overhead and
 * cleaner load.
 */

#include "bench_util.hpp"

using namespace nvfs;

namespace {

core::ServerRunResult
runBounded(double scale, Bytes buffer)
{
    const auto profiles = workload::standardFsProfiles(scale);
    const auto ops = workload::generateServerOps(
        profiles, 24 * kUsPerHour, 7);
    std::vector<std::string> names;
    for (const auto &profile : profiles)
        names.push_back(profile.name);

    server::ServerConfig config;
    config.nvramBufferBytes = buffer;
    // A bounded disk per file system: big enough for the live data
    // (/user6's database grows all day) but small enough that dead
    // partial segments must be reclaimed.
    config.lfs.diskSegments = 1400; // 700 MB at 512 KB segments
    config.lfs.cleanLowWater = 150;
    config.lfs.cleanHighWater = 300;

    server::FileServer fs(names, config);
    fs.run(ops);

    core::ServerRunResult result;
    for (FsId i = 0; i < names.size(); ++i)
        result.fs.push_back(fs.stats(i));
    result.totalDiskWrites = fs.totalDiskWrites();
    result.totalDataBytes = fs.totalDataBytes();
    return result;
}

} // namespace

namespace nvfs::bench {

std::string
ablation_cleaner_load()
{
    std::string out = bench::header(
        "garbage-collection load and disk-space overhead, bounded "
        "disk",
        "eliminating partial segments cuts metadata overhead from up "
        "to ~1/3 to < 1% and reduces cleaner load");

    const double scale = core::benchScale();
    const auto baseline = runBounded(scale, 0);
    const auto buffered = runBounded(scale, 512 * kKiB);

    util::TextTable table({"file system", "overhead % (base)",
                           "overhead % (buffered)",
                           "cleaner segs (base)",
                           "cleaner segs (buffered)",
                           "cleaner MB copied (base)",
                           "(buffered)"});
    for (std::size_t i = 0; i < baseline.fs.size(); ++i) {
        const auto &base = baseline.fs[i].log;
        const auto &buf = buffered.fs[i].log;
        auto overhead = [](const lfs::LogStats &stats) {
            return util::percent(
                static_cast<double>(stats.metadataBytes +
                                    stats.summaryBytes),
                static_cast<double>(stats.diskBytes()));
        };
        table.addRow(
            {baseline.fs[i].name, bench::pct(overhead(base)),
             bench::pct(overhead(buf)),
             util::format("%llu", static_cast<unsigned long long>(
                                      base.cleanerSegments)),
             util::format("%llu", static_cast<unsigned long long>(
                                      buf.cleanerSegments)),
             util::format("%.1f", toMiB(base.cleanerCopiedBytes)),
             util::format("%.1f", toMiB(buf.cleanerCopiedBytes))});
    }
    out += table.render() + "\n";

    Bytes base_meta = 0, base_disk = 0, buf_meta = 0, buf_disk = 0;
    std::uint64_t base_clean = 0, buf_clean = 0;
    for (std::size_t i = 0; i < baseline.fs.size(); ++i) {
        base_meta += baseline.fs[i].log.metadataBytes +
                     baseline.fs[i].log.summaryBytes;
        base_disk += baseline.fs[i].log.diskBytes();
        base_clean += baseline.fs[i].log.cleanerSegments;
        buf_meta += buffered.fs[i].log.metadataBytes +
                    buffered.fs[i].log.summaryBytes;
        buf_disk += buffered.fs[i].log.diskBytes();
        buf_clean += buffered.fs[i].log.cleanerSegments;
    }
    out += util::format("server-wide: overhead %.1f%% -> %.1f%% of disk "
                        "bytes; cleaner segment writes %llu -> %llu\n",
                        util::percent(static_cast<double>(base_meta),
                                      static_cast<double>(base_disk)),
                        util::percent(static_cast<double>(buf_meta),
                                      static_cast<double>(buf_disk)),
                        static_cast<unsigned long long>(base_clean),
                        static_cast<unsigned long long>(buf_clean));
    return out;
}

} // namespace nvfs::bench

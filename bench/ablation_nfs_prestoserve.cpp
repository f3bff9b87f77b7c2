/**
 * @file
 * Section 3 context: the NFS + UNIX-FFS baseline and the Prestoserve
 * NVRAM board [15], versus LFS with and without the write buffer.
 *
 * The paper: "performance improvements of up to 50% have been reported
 * on systems using this board ... While we do not see as great an
 * improvement in performance due to NVRAM with this write-optimized
 * file system [LFS] as with the NFS protocol and the UNIX fast file
 * system, we do see some improvement."
 */

#include "bench_util.hpp"
#include "ffs/ffs_server.hpp"

namespace nvfs::bench {

std::string
ablation_nfs_prestoserve()
{
    std::string out = bench::header(
        "NFS + FFS vs. LFS, with and without NVRAM",
        "NVRAM helps the synchronous NFS/FFS world most (up to ~50%); "
        "write-optimized LFS still gains, but less");

    const double scale = core::benchScale();
    const TimeUs duration = 24 * kUsPerHour;
    const auto profiles = workload::standardFsProfiles(scale);
    const auto ops = workload::generateServerOps(profiles, duration, 7);

    auto run_ffs = [&](bool nfs, Bytes nvram) {
        ffs::FfsConfig config;
        config.nfsProtocol = nfs;
        config.nvramBytes = nvram;
        ffs::FfsServer server(config);
        server.run(ops);
        return server.stats();
    };

    const auto nfs_plain = run_ffs(true, 0);
    const auto nfs_presto = run_ffs(true, kMiB);
    const auto ffs_plain = run_ffs(false, 0);
    const auto ffs_presto = run_ffs(false, kMiB);

    util::TextTable table({"system", "disk writes", "disk time (s)",
                           "sync ops", "mean sync latency (ms)"});
    auto addRow = [&](const std::string &name,
                      const ffs::FfsStats &stats) {
        table.addRow({name,
                      util::format("%llu",
                                   static_cast<unsigned long long>(
                                       stats.diskWrites)),
                      util::format("%.1f", stats.diskTimeMs / 1000.0),
                      util::format("%llu",
                                   static_cast<unsigned long long>(
                                       stats.syncOperations)),
                      util::format("%.2f",
                                   stats.meanSyncLatencyMs())});
    };
    addRow("NFS + FFS", nfs_plain);
    addRow("NFS + FFS + Prestoserve (1 MB)", nfs_presto);
    addRow("local FFS (30 s write-back)", ffs_plain);
    addRow("local FFS + Prestoserve", ffs_presto);
    out += table.render() + "\n";

    out += util::format("NFS latency improvement with Prestoserve: %.1f%% "
                        "(paper: up to ~50%% system-level)\n",
                        100.0 * (nfs_plain.meanSyncLatencyMs() -
                                 nfs_presto.meanSyncLatencyMs()) /
                            nfs_plain.meanSyncLatencyMs());
    out += util::format(
        "NFS disk-time reduction with Prestoserve: %.1f%%\n",
        100.0 * (nfs_plain.diskTimeMs - nfs_presto.diskTimeMs) /
            nfs_plain.diskTimeMs);

    // The LFS comparison from the main study.
    const auto lfs_base = core::runServerSim(duration, scale, 0, 7);
    const auto lfs_buf =
        core::runServerSim(duration, scale, 512 * kKiB, 7);
    out += util::format("\nLFS (all 8 file systems): %llu -> %llu disk write "
                        "accesses with a 1/2 MB buffer (%.1f%% fewer)\n",
                        static_cast<unsigned long long>(
                            lfs_base.totalDiskWrites),
                        static_cast<unsigned long long>(
                            lfs_buf.totalDiskWrites),
                        100.0 *
                            (static_cast<double>(lfs_base.totalDiskWrites) -
                             static_cast<double>(lfs_buf.totalDiskWrites)) /
                            static_cast<double>(lfs_base.totalDiskWrites));
    out += "note LFS needs far fewer disk writes than NFS+FFS "
           "to begin with:\nthe log amortizes seeks that FFS "
           "pays per block.\n";
    return out;
}

} // namespace nvfs::bench

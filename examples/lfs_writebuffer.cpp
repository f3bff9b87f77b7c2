/**
 * @file
 * The server-side story end to end: run the eight measured Sprite
 * file systems against the LFS server with and without an NVRAM write
 * buffer, print the per-filesystem disk-access reduction, and cost the
 * physical writes on the disk model.
 *
 * Usage: lfs_writebuffer [hours] [bufferKB] [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "core/sim/experiments.hpp"
#include "disk/disk_model.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

using namespace nvfs;

int
main(int argc, char **argv)
{
    const double hours =
        argc > 1 ? util::argDouble("hours", argv[1], 1e-6, 1e6) : 24.0;
    const double buffer_kb =
        argc > 2 ? util::argDouble("buffer-kb", argv[2], 0, 1e9)
                 : 512.0;
    const double scale =
        argc > 3 ? util::argDouble("scale", argv[3], 1e-6, 1e6) : 1.0;

    const auto duration = static_cast<TimeUs>(hours * kUsPerHour);
    const auto buffer = static_cast<Bytes>(buffer_kb * kKiB);

    std::printf("LFS write buffer demo: %.3g h of server activity, "
                "%.4g KB NVRAM buffer per file system\n\n",
                hours, buffer_kb);

    const auto baseline = core::runServerSim(duration, scale, 0);
    const auto buffered = core::runServerSim(duration, scale, buffer);

    util::TextTable table({"file system", "segments", "partial %",
                           "fsync %", "segments (buffered)",
                           "reduction %"});
    for (std::size_t i = 0; i < baseline.fs.size(); ++i) {
        const auto &base = baseline.fs[i];
        const auto &buf = buffered.fs[i];
        const double segs =
            static_cast<double>(base.log.segmentsWritten);
        table.addRow(
            {base.name,
             util::format("%llu", static_cast<unsigned long long>(
                                      base.log.segmentsWritten)),
             util::format("%.1f",
                          100.0 *
                              static_cast<double>(
                                  base.log.partialSegments) /
                              segs),
             util::format("%.1f",
                          100.0 *
                              static_cast<double>(
                                  base.log.partialsByFsync) /
                              segs),
             util::format("%llu", static_cast<unsigned long long>(
                                      buf.log.segmentsWritten)),
             util::format(
                 "%.1f",
                 100.0 *
                     (segs - static_cast<double>(
                                 buf.log.segmentsWritten)) /
                     segs)});
    }
    std::printf("%s\n", table.render().c_str());

    // Cost the physical writes on the disk model: every segment write
    // is one seek plus a sequential transfer.
    const disk::DiskModel disk;
    auto cost_ms = [&](const core::ServerRunResult &run) {
        double total = 0.0;
        for (const auto &fs : run.fs) {
            const double per_seg_overhead =
                disk.serviceSequential(0).totalMs();
            total += static_cast<double>(fs.log.segmentsWritten) *
                     per_seg_overhead;
            total += disk.transferMs(fs.log.diskBytes());
        }
        return total;
    };
    const double base_ms = cost_ms(baseline);
    const double buf_ms = cost_ms(buffered);
    std::printf("disk-time estimate: %.1f s without buffer, %.1f s "
                "with (%.1f%% less disk time)\n",
                base_ms / 1000.0, buf_ms / 1000.0,
                100.0 * (base_ms - buf_ms) / base_ms);

    // Metadata overhead, the Table 4 disk-space argument.
    Bytes base_meta = 0, base_all = 0, buf_meta = 0, buf_all = 0;
    for (const auto &fs : baseline.fs) {
        base_meta += fs.log.metadataBytes + fs.log.summaryBytes;
        base_all += fs.log.diskBytes();
    }
    for (const auto &fs : buffered.fs) {
        buf_meta += fs.log.metadataBytes + fs.log.summaryBytes;
        buf_all += fs.log.diskBytes();
    }
    std::printf("metadata+summary overhead: %.1f%% of disk bytes "
                "without buffer, %.1f%% with\n",
                100.0 * static_cast<double>(base_meta) /
                    static_cast<double>(base_all),
                100.0 * static_cast<double>(buf_meta) /
                    static_cast<double>(buf_all));
    return 0;
}

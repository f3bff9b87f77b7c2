/**
 * @file
 * The [3] cross-check closing Section 3: large segment writes delay
 * synchronous reads that queue behind them.  Sweep the write size at
 * constant write byte-throughput and report the mean read response
 * time — the paper quotes an increase of "typically about 14%"
 * (sometimes 37%) for full-segment writes, with the latency-optimal
 * write size around two disk tracks (50-70 KB).
 */

#include "bench_util.hpp"
#include "disk/queue_sim.hpp"

namespace nvfs::bench {

std::string
ablation_read_latency()
{
    std::string out = bench::header(
        "read response time vs. LFS write size ([3] cross-check)",
        "full 512 KB segments raise mean read response ~14% "
        "(sometimes 37%) over ~2-track writes");

    disk::QueueSimParams params;
    params.readsPerSecond = 6.0;
    params.writeBytesPerSecond = 60.0 * 1024;
    params.durationSeconds = 4.0 * 3600.0;

    // Baseline for the "increase" comparison: ~2 disk tracks.
    const Bytes two_tracks = 2 * params.disk.trackBytes;
    params.writeBytes = two_tracks;
    const auto baseline = disk::simulateDiskQueue(params);

    util::TextTable table({"write size", "mean read response (ms)",
                           "vs. 2-track baseline %",
                           "mean write response (ms)", "disk util %"});
    for (const Bytes size :
         {Bytes{16 * kKiB}, Bytes{32 * kKiB}, two_tracks,
          Bytes{128 * kKiB}, Bytes{256 * kKiB}, Bytes{512 * kKiB},
          Bytes{kMiB}}) {
        params.writeBytes = size;
        const auto run = disk::simulateDiskQueue(params);
        table.addRow(
            {util::formatBytes(size),
             util::format("%.2f", run.meanReadResponseMs),
             util::format("%+.1f",
                          100.0 *
                              (run.meanReadResponseMs -
                               baseline.meanReadResponseMs) /
                              baseline.meanReadResponseMs),
             util::format("%.2f", run.meanWriteResponseMs),
             util::format("%.1f", 100.0 * run.diskUtilization)});
    }
    out += table.render() + "\n";
    out += "the effect matters only for reads that miss the "
           "server cache; an NVRAM write\nbuffer lets LFS choose "
           "its write size freely instead of being forced by "
           "fsyncs.\n";
    return out;
}

} // namespace nvfs::bench

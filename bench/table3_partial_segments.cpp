/**
 * @file
 * Table 3: percent of forced partial segments on the eight LFS file
 * systems of the Sprite server, without an NVRAM write buffer.
 */

#include "bench_util.hpp"

namespace {

/** Published Table 3 values, same order as standardFsProfiles(). */
struct PaperRow
{
    double partialPct;
    double fsyncPct;
    double sharePct;
};

constexpr PaperRow kPaper[] = {
    {97, 92, 89.0}, // /user6
    {65, 0.01, 3.0}, // /local
    {70, 0, 3.0},    // /swap1
    {90, 18, 1.9},   // /user1
    {92, 10, 1.5},   // /user4
    {71, 22, 0.9},   // /sprite/src/kernel
    {92, 20, 0.3},   // /user2
    {96, 0, 0.1},    // /scratch4
};

} // namespace

namespace nvfs::bench {

std::string
table3_partial_segments()
{
    std::string out = bench::header(
        "Table 3: percent of forced partial segments on LFS file "
        "systems",
        "10-25% of segments are fsync-forced partials on most file "
        "systems; 92% on /user6");

    const double scale = core::benchScale();
    const auto result = core::runServerSim(24 * kUsPerHour, scale, 0);

    std::uint64_t total_segments = 0;
    for (const auto &fs : result.fs)
        total_segments += fs.log.segmentsWritten;

    util::TextTable table({"File system", "% partial", "paper",
                           "% partial by fsync", "paper",
                           "% of all segments", "paper"});
    for (std::size_t i = 0; i < result.fs.size(); ++i) {
        const auto &fs = result.fs[i];
        const double segs =
            static_cast<double>(fs.log.segmentsWritten);
        table.addRow({fs.name,
                      bench::pct(util::percent(
                          static_cast<double>(fs.log.partialSegments),
                          segs)),
                      bench::pct(kPaper[i].partialPct),
                      bench::pct(util::percent(
                          static_cast<double>(fs.log.partialsByFsync),
                          segs)),
                      bench::pct(kPaper[i].fsyncPct),
                      bench::pct(util::percent(
                          segs, static_cast<double>(total_segments))),
                      bench::pct(kPaper[i].sharePct)});
    }
    out += table.render() + "\n";
    out += util::format("total segment writes: %llu\n",
                        static_cast<unsigned long long>(total_segments));
    return out;
}

} // namespace nvfs::bench

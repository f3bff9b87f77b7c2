/**
 * @file
 * Table 2: the fate of all bytes written into a non-volatile client
 * cache of infinite size, summed across all eight traces and across
 * the six "typical" traces (excluding 3 and 4).
 */

#include "bench_util.hpp"
#include "workload/profile.hpp"

using namespace nvfs;

namespace {

struct Totals
{
    Bytes overwritten = 0;
    Bytes deleted = 0;
    Bytes calledBack = 0;
    Bytes concurrent = 0;
    Bytes remaining = 0;
    Bytes written = 0;

    void
    add(const core::LifetimeResult &life)
    {
        overwritten += life.fateBytes(core::ByteFate::Overwritten);
        deleted += life.fateBytes(core::ByteFate::Deleted);
        calledBack += life.fateBytes(core::ByteFate::CalledBack);
        concurrent += life.fateBytes(core::ByteFate::Concurrent);
        remaining += life.fateBytes(core::ByteFate::Remaining);
        written += life.totalWritten;
    }
};

std::string
mb(Bytes bytes)
{
    return nvfs::util::format("%.0f", nvfs::toMiB(bytes));
}

} // namespace

namespace nvfs::bench {

std::string
table2_byte_fate()
{
    std::string out = bench::header(
        "Table 2: summary of types of write traffic (infinite NVRAM)",
        "all traces: 85% absorbed, 8% called back; excluding 3 and 4: "
        "66% absorbed, 17% called back, 20% remaining");

    const double scale = core::benchScale();
    Totals all, typical;
    for (int t = 1; t <= 8; ++t) {
        const auto &life = core::standardLifetimes(t, scale);
        all.add(life);
        if (!workload::isBigSimTrace(t))
            typical.add(life);
    }

    // Paper percentages for the two column groups.
    const double paper_all[] = {2.86, 82.27, 85.13, 8.07, 0.42, 7.67};
    const double paper_no34[] = {7.36, 58.27, 65.63, 16.56, 0.36,
                                 20.17};

    util::TextTable table({"Traffic type", "MB (all)", "% all",
                           "paper", "MB (no 3/4)", "% no 3/4",
                           "paper"});
    auto addRow = [&](const std::string &name, Bytes a, Bytes b,
                      double pa, double pb) {
        table.addRow({name, mb(a),
                      bench::pct(util::percent(
                          static_cast<double>(a),
                          static_cast<double>(all.written))),
                      bench::pct(pa), mb(b),
                      bench::pct(util::percent(
                          static_cast<double>(b),
                          static_cast<double>(typical.written))),
                      bench::pct(pb)});
    };
    addRow("Overwritten", all.overwritten, typical.overwritten,
           paper_all[0], paper_no34[0]);
    addRow("Deleted", all.deleted, typical.deleted, paper_all[1],
           paper_no34[1]);
    addRow("Total absorbed", all.overwritten + all.deleted,
           typical.overwritten + typical.deleted, paper_all[2],
           paper_no34[2]);
    table.addSeparator();
    addRow("Called back", all.calledBack, typical.calledBack,
           paper_all[3], paper_no34[3]);
    addRow("Concurrent writes", all.concurrent, typical.concurrent,
           paper_all[4], paper_no34[4]);
    addRow("Total server writes", all.calledBack + all.concurrent,
           typical.calledBack + typical.concurrent,
           paper_all[3] + paper_all[4], paper_no34[3] + paper_no34[4]);
    table.addSeparator();
    addRow("Remaining", all.remaining, typical.remaining, paper_all[5],
           paper_no34[5]);
    table.addRow({"Total application writes", mb(all.written), "100.0",
                  "100.0", mb(typical.written), "100.0", "100.0"});
    out += table.render() + "\n";
    return out;
}

} // namespace nvfs::bench

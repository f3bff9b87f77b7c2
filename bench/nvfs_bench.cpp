/**
 * @file
 * nvfs_bench: regenerate the paper's tables and figures in one
 * process.  Each figure is a function in bench/<name>.cpp that
 * returns its report.  The selected figures run concurrently on the
 * shared pool, so the traces, lifetimes and oracles they share are
 * built once, and their own grids and curve sweeps nest inside the
 * same pool.  The reports print in table order once every figure has
 * finished, so stdout is the same at every NVFS_JOBS width.
 *
 *   nvfs_bench all          every figure
 *   nvfs_bench FIGURE...    the named figures, in table order
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

// NVFS_FIGURE_LIST is X(name) for every figure, in README's order;
// bench/CMakeLists.txt defines it from its NVFS_FIGURES list.
namespace nvfs::bench {
#define X(name) std::string name();
NVFS_FIGURE_LIST
#undef X
} // namespace nvfs::bench

namespace {

using namespace nvfs;

struct Figure
{
    const char *name;
    std::string (*report)();
};

constexpr Figure kFigures[] = {
#define X(name) {#name, bench::name},
    NVFS_FIGURE_LIST
#undef X
};

[[noreturn]] void
usageError(const std::string &problem)
{
    std::string names;
    for (const Figure &figure : kFigures)
        names += std::string(" ") + figure.name;
    util::fatal("nvfs_bench: " + problem + "; figures:" + names +
                "\nusage: nvfs_bench all | nvfs_bench FIGURE...");
}

/** The figures the arguments name, in table order. */
std::vector<const Figure *>
selectFigures(int argc, char **argv)
{
    if (argc < 2)
        usageError("no figure given");
    std::vector<bool> wanted(std::size(kFigures), false);
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "all") {
            if (argc > 2)
                usageError("'all' takes no figure names");
            wanted.assign(wanted.size(), true);
            continue;
        }
        std::size_t f = 0;
        while (f < std::size(kFigures) && arg != kFigures[f].name)
            ++f;
        if (f == std::size(kFigures))
            usageError("unknown figure '" + arg + "'");
        wanted[f] = true;
    }
    std::vector<const Figure *> selected;
    for (std::size_t f = 0; f < std::size(kFigures); ++f) {
        if (wanted[f])
            selected.push_back(&kFigures[f]);
    }
    return selected;
}

} // namespace

int
main(int argc, char **argv)
{
    // Registers the NVFS_STATS_OUT / NVFS_TRACE_OUT exit hooks (and
    // enables span buffering) before any figure starts.
    obs::autoExportFromEnv();
    const std::vector<const Figure *> figures = selectFigures(argc, argv);

    std::vector<std::string> reports(figures.size());
    try {
        util::ThreadPool::global().forEach(
            figures.size(), util::defaultJobCount(),
            [&figures](std::size_t i) {
                return std::string(figures[i]->name);
            },
            [&](std::size_t i) {
                const obs::StageTimer stage("bench.figure",
                                            figures[i]->name);
                reports[i] = figures[i]->report();
            });
    } catch (const std::exception &error) {
        // A TaskError: its message leads with the figure's name.
        std::fprintf(stderr, "nvfs_bench: %s\n", error.what());
        return 1;
    }
    for (const std::string &report : reports)
        std::fputs(report.c_str(), stdout);
    return 0;
}

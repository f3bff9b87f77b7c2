/**
 * @file
 * nvfs_fuzz — standalone driver for the nvfs::check differential
 * fuzzer.  Replays randomized op streams through the production
 * simulator and the per-block reference across all three client
 * models with structural audits enabled; exits non-zero with a shrunk
 * reproducer when any audit fires or the two disagree.
 *
 *   nvfs_fuzz [--runs N] [--ops N] [--seed S] [--clients N]
 *             [--files N] [--audit N] [--max-seconds T] [--no-shrink]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "check/fuzz.hpp"
#include "util/env.hpp"
#include "util/log.hpp"

using namespace nvfs;

namespace {

void
usage()
{
    std::printf(
        "usage: nvfs_fuzz [--runs N] [--ops N] [--seed S]\n"
        "                 [--clients N] [--files N] [--audit N]\n"
        "                 [--max-seconds T] [--no-shrink]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    check::FuzzConfig config;
    std::size_t runs = 20;

    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--no-shrink") {
            config.shrink = false;
            continue;
        }
        if (key == "--help" || key == "-h") {
            usage();
            return 0;
        }
        if (i + 1 >= argc) {
            usage();
            util::fatal("option '" + key + "' needs a value");
        }
        const std::string value = argv[++i];
        const auto as_int = [&] {
            const auto parsed = util::tryParseInt(value);
            if (!parsed.has_value() || *parsed < 0) {
                util::fatal(key + " expects a non-negative integer, "
                                  "got '" +
                            value + "'");
            }
            return static_cast<std::uint64_t>(*parsed);
        };
        if (key == "--runs") {
            runs = static_cast<std::size_t>(as_int());
        } else if (key == "--ops") {
            config.opsPerRun = static_cast<std::size_t>(as_int());
        } else if (key == "--seed") {
            config.seed = as_int();
        } else if (key == "--clients") {
            const std::uint64_t n = as_int();
            if (n == 0)
                util::fatal("--clients must be at least 1");
            config.clients = static_cast<std::uint32_t>(n);
        } else if (key == "--files") {
            const std::uint64_t n = as_int();
            if (n == 0)
                util::fatal("--files must be at least 1");
            config.files = static_cast<std::uint32_t>(n);
        } else if (key == "--audit") {
            config.auditEvery = as_int();
        } else if (key == "--max-seconds") {
            const auto parsed = util::tryParseDouble(value);
            if (!parsed.has_value() || *parsed < 0.0) {
                util::fatal("--max-seconds expects a non-negative "
                            "number, got '" +
                            value + "'");
            }
            config.maxSeconds = *parsed;
        } else {
            usage();
            util::fatal("unknown option '" + key + "'");
        }
    }

    const check::FuzzResult result = check::fuzz(config, runs);
    if (result.ok()) {
        std::printf("nvfs_fuzz: %zu runs, %zu ops, production == "
                    "per-block reference, all audits clean\n",
                    result.runs, result.opsExecuted);
        return 0;
    }
    const check::FuzzFailure &failure = *result.failure;
    std::fprintf(stderr,
                 "nvfs_fuzz FAILED (seed %llu): %s\n"
                 "reproducer (%zu ops, shrunk from %zu):\n%s",
                 static_cast<unsigned long long>(failure.seed),
                 failure.what.c_str(), failure.ops.ops.size(),
                 failure.originalOps,
                 check::describeOps(failure.ops).c_str());
    std::fprintf(stderr,
                 "rerun: nvfs_fuzz --runs 1 --seed %llu --ops %zu\n",
                 static_cast<unsigned long long>(failure.seed),
                 failure.originalOps);
    return 1;
}

/**
 * @file
 * Server-side workload for the LFS write-buffer study (Section 3).
 *
 * The paper sampled kernel counters on the main Sprite file server for
 * two weeks across eight LFS file systems.  We reproduce the *arrival
 * process* those counters imply.  Because clients batch dirty data
 * with their own 30-second write-back, data reaches the server in
 * lumps ("dumps"): each dump is one file's worth of dirty blocks
 * arriving together, optionally followed by an application fsync.
 * The per-filesystem parameters are calibrated to Table 3 (fraction
 * of partial segments, fraction forced by fsync, share of all segment
 * writes) and Table 4 (kilobytes per partial segment, share of write
 * traffic):
 *
 *  - /user6 runs a transaction-processing benchmark issuing five
 *    ~8 KB fsyncs per transaction;
 *  - /swap1 sees paging dumps, small page clusters plus occasional
 *    multi-megabyte page-outs, and never fsyncs;
 *  - /local sees large installation dumps, essentially no fsyncs;
 *  - the home directories see small interactive dumps with
 *    occasional editor fsyncs;
 *  - /scratch4 sees a slow trickle of long-lived trace data.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace nvfs::workload {

/** One operation arriving at the file server. */
struct ServerOp
{
    enum class Kind : std::uint8_t { Write, Fsync };

    TimeUs time = 0;
    FsId fs = 0;
    FileId file = 0;
    Bytes offset = 0;
    Bytes length = 0; ///< Write only
    Kind kind = Kind::Write;

    bool operator==(const ServerOp &other) const = default;
};

/** Activity parameters of one server file system. */
struct FsProfile
{
    std::string name;

    // Transaction-processing stream (database benchmark on /user6).
    double transactionsPerHour = 0.0;
    int fsyncsPerTransaction = 0;
    double bytesPerFsync = 0.0;

    // Dump stream: lumps of dirty data arriving together.  Dumps come
    // in *sessions* (a user saving repeatedly, a compile emitting its
    // outputs): several dumps spread over a couple of minutes.  An
    // fsync'd dump can then coalesce with its neighbours' write-back
    // when a write buffer is present — the source of the paper's
    // 10-25% disk-access reduction on the home-directory systems.
    double dumpsPerHour = 0.0;
    double sessionDumpsMean = 1.0; ///< dumps per session (1 = isolated)
    double sessionSpreadS = 120.0; ///< session duration
    double smallDumpMeanBytes = 24.0 * 1024; ///< lognormal mean
    double smallDumpSigma = 0.8;
    double bigDumpProb = 0.0;   ///< chance a dump is "big"
    double bigDumpMeanBytes = 0.0;
    double bigDumpSigma = 0.7;
    double dumpFsyncProb = 0.0; ///< fsync right after a small dump

    // Trickle stream (slow appends: long-lived trace data).
    double trickleIntervalS = 0.0; ///< 0 = no trickle
    double trickleChunkBytes = 8.0 * 1024;
};

/** The eight measured file systems, Table 3 order of discussion. */
std::vector<FsProfile> standardFsProfiles(double scale = 1.0);

/**
 * Generate the merged, time-sorted server op stream for all profiles.
 * Deterministic per seed.
 */
std::vector<ServerOp> generateServerOps(const std::vector<FsProfile> &fss,
                                        TimeUs duration,
                                        std::uint64_t seed);

} // namespace nvfs::workload

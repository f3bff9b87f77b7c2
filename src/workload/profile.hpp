/**
 * @file
 * Per-trace workload profiles.
 *
 * The original study used eight 24-hour traces of the Berkeley Sprite
 * cluster.  Those traces no longer exist in distributable form, so each
 * profile here parameterizes a synthetic generator calibrated to the
 * published marginals (DESIGN.md §7): byte-lifetime distribution
 * (Figure 2), the fate of written bytes (Table 2), and the division of
 * activity between ordinary interactive work and the large-file
 * simulation runs that dominate traces 3 and 4.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace nvfs::workload {

/** Behavioural class of a generated file. */
enum class FileClass : std::uint8_t {
    Temp,     ///< compiler intermediates: written, read once, deleted fast
    Edited,   ///< documents/sources: rewritten repeatedly (overwrites)
    Log,      ///< append-only, long lived
    Output,   ///< written once, survives (binaries, results)
    Shared,   ///< written by one client, soon read by another (callback)
    BigSim,   ///< traces 3/4: very large short-lived simulation data
    System,   ///< pre-existing read-only files (read traffic)
};

/** Rate/shape parameters for one activity within a profile. */
struct ActivityParams
{
    double bytesShare = 0.0;     ///< share of the trace's written bytes
    double meanFileBytes = 0.0;  ///< mean size of one written file
    double sigmaFile = 0.8;      ///< lognormal sigma of file size
};

/** Parameters of one 24-hour trace. */
struct TraceProfile
{
    std::string name;           ///< "trace1" ... "trace8"
    std::uint16_t index = 0;    ///< 0-based trace number
    std::uint32_t clients = 10; ///< active client workstations
    TimeUs duration = 24 * kUsPerHour;
    Bytes totalWriteBytes = 320 * kMiB; ///< application write volume
    double readWriteRatio = 2.0; ///< application read : write bytes

    /** Written-byte shares and sizes per class. */
    ActivityParams temp;   ///< deleted quickly
    ActivityParams edited; ///< overwritten on saves
    ActivityParams log;    ///< survives (append)
    ActivityParams output; ///< survives (write once)
    ActivityParams shared; ///< called back by cross-client opens
    ActivityParams bigSim; ///< traces 3/4 only

    /** Temp-file delete delay mixture: fast / medium / slow means. */
    double tempFastWeight = 0.80;
    double tempFastMeanS = 15.0;
    double tempMediumWeight = 0.15;
    double tempMediumMeanS = 600.0;
    double tempSlowWeight = 0.05;
    double tempSlowMeanS = 4.0 * 3600.0;

    /** Edited-file save interval (lognormal of ln seconds). */
    double editSaveMuLnS = 4.8;   ///< exp(4.8) ≈ 2 min median
    double editSaveSigmaLnS = 1.2;
    /** Saves before the document is abandoned (geometric mean). */
    double editMeanSaves = 8.0;
    /** Probability a save issues fsync (editors that sync). */
    double editFsyncProb = 0.25;

    /** Shared file: delay until the other client reads it (exp mean). */
    double sharedReadDelayS = 400.0;

    /** BigSim lifetime (lognormal ln seconds): deleted/overwritten. */
    double bigSimMuLnS = 6.3;     ///< exp(6.3) ≈ 9 min median
    double bigSimSigmaLnS = 0.7;
    double bigSimDeleteProb = 0.85; ///< vs. overwrite

    /** Burstiness: temp files arrive in compile-like jobs. */
    double jobMeanFiles = 12.0;   ///< temp files per job
    double jobSpreadS = 45.0;     ///< job duration (uniform spread)

    /** Fraction of non-editor write sessions that fsync. */
    double miscFsyncProb = 0.04;

    /** Concurrent write-sharing: share of written bytes (tiny). */
    double concurrentShare = 0.004;

    /** Process migrations per client per day. */
    double migrationsPerClientDay = 1.0;

    /**
     * Read working set.  Each client reads from its own Zipf-weighted
     * slice of the system files; slices overlap (stride < slice) so
     * popular files are cluster-hot.  The per-client slice is sized
     * well above the 8 MB base cache so that added cache memory keeps
     * paying off through the 8-24 MB range the paper sweeps.
     */
    std::uint32_t systemFiles = 3500;
    double systemFileMeanBytes = 24.0 * 1024;
    std::uint32_t systemWorkingSetFiles = 1100; ///< files per client
    std::uint32_t systemSliceStride = 350;      ///< slice offset/client
    double systemZipf = 0.7;      ///< popularity skew of reads
    /** Fraction of read bytes aimed at recently written own files. */
    double selfReadFraction = 0.35;

    /** Scale factor applied to byte volumes (tests use < 1). */
    double scale = 1.0;
};

/**
 * The eight standard profiles.  Traces 2 and 6 (0-based indices) are
 * the "large simulation" traces the paper calls traces 3 and 4.
 * @param scale multiply all byte volumes (and file counts where
 *        appropriate) by this factor; tests pass small values.
 */
std::vector<TraceProfile> standardProfiles(double scale = 1.0);

/** One profile by paper numbering (1-based: 1..8). */
TraceProfile standardProfile(int paper_number, double scale = 1.0);

/** True for the two atypical traces (paper numbers 3 and 4). */
bool isBigSimTrace(int paper_number);

} // namespace nvfs::workload

/**
 * @file
 * CurveSim: the single-pass multi-size curve engine behind the
 * NVRAM-size sweeps (Figures 3-6, cost-effectiveness table).
 *
 * Every headline figure of the paper is a curve over cache size, and
 * a per-size replay re-simulates the same op stream once per point.
 * For LRU-managed memories the inclusion property holds: the resident
 * set of a smaller cache is always a subset of a larger one's, so a
 * single replay can classify every event — absorption, eviction
 * write-back, callback recall, 30 s sync flush — against *all*
 * configured sizes at once and accumulate a full Metrics vector per
 * size in one pass.  The volatile axis keeps one recency list with a
 * per-size LRU boundary on it; the unified NVRAM axis keeps each
 * size's volatile and NVRAM LRU lists over one shared slot arena.  The
 * replay itself is core::replayOps, the protocol driver ClusterSim
 * runs too; the curve engine contributes only its multi-size client
 * set.
 *
 * Results are bit-identical to running the per-size replay grid
 * (core::runClientGrid) point by point; the curve_sim_test
 * differential matrix enforces this over all eight paper traces.
 * Configurations whose semantics break the inclusion property —
 * write-aside mirroring, random/clock/omniscient NVRAM policies,
 * dirty-preferring replacement, dynamic cache sizing, end-to-end
 * sinks — automatically fall back to the per-size grid.
 */

#pragma once

#include <vector>

#include "core/client/client_model.hpp"
#include "prep/ops.hpp"

namespace nvfs::core {

/** Which ModelConfig field a curve sweeps. */
enum class CurveAxis
{
    VolatileBytes, ///< volatile-model cache-size sweep
    NvramBytes,    ///< unified-model NVRAM-size sweep
};

/** One multi-size sweep: a base configuration and the swept sizes. */
struct CurveSpec
{
    /** Shared configuration; the swept field is ignored. */
    ModelConfig base;
    CurveAxis axis = CurveAxis::NvramBytes;
    /** Swept sizes in bytes, one Metrics row each (any order). */
    std::vector<Bytes> sizes;
    std::uint64_t seed = 42;
    /** nvfs::check cadence; 0 = NVFS_AUDIT env (ClusterSim rule). */
    std::uint64_t auditEvery = 0;
};

/** Most sizes one curve pass can carry (per-slot residency masks). */
constexpr std::size_t kCurveMaxSizes = 32;

/**
 * True when the single-pass engine reproduces this spec exactly: the
 * swept memory is LRU-managed (inclusion property), every size holds
 * at least one block, at most kCurveMaxSizes sizes, and no
 * per-replay side channel (sink) or inclusion-breaking ablation
 * (dirty preference, dynamic sizing) is configured.
 */
bool curveSupported(const CurveSpec &spec);

/**
 * The per-size model grid equivalent to `spec`: one ModelConfig per
 * size with the swept field substituted.  This is both the fallback
 * path and the differential-test oracle.
 */
std::vector<ModelConfig> curveGridModels(const CurveSpec &spec);

/**
 * Run the single-pass engine: one replay of `ops`, one Metrics row
 * per spec.sizes entry (in order).  Requires curveSupported(spec).
 * Bit-identical to runClientGrid(ops, curveGridModels(spec), seed).
 */
std::vector<Metrics> runCurveSim(const prep::OpStream &ops,
                                 const CurveSpec &spec);

} // namespace nvfs::core

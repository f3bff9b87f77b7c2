/**
 * @file
 * CurveSim: the single-pass multi-size curve engine behind the size
 * sweeps (Figures 3-6, cost-effectiveness table).
 *
 * Every headline figure of the paper is a curve over cache size, and
 * a per-size replay re-simulates the same op stream once per point.
 * One replay can instead classify every event — absorption, eviction
 * write-back, callback recall, 30 s sync flush — against *all*
 * configured sizes at once and accumulate a full Metrics vector per
 * size in one pass.  The volatile axis rests on the inclusion
 * property of LRU (a smaller cache holds a subset of a larger one's
 * blocks) and keeps one recency list with a per-size LRU boundary on
 * it.  The NVRAM axis needs no inclusion: the unified client keeps
 * each size's volatile and NVRAM LRU lists over one shared slot
 * arena, and the write-aside client keeps one volatile LRU list (the
 * same at every NVRAM size) and per size an NVRAM LRU list of that
 * size's dirty blocks.  The replay itself is core::replayOps, the
 * protocol driver ClusterSim runs too; the curve engine contributes
 * only its multi-size client set.
 *
 * Results are bit-identical to one replay per size on the client
 * models (ClusterSim); the curve_sim_test differential matrix
 * enforces this over all eight paper traces, and nvfs_sim check on
 * random streams.  It is the only production replay of every cell
 * curveSupported accepts: core::runClientGrid replays each group of
 * cells that differ only in the swept size as one pass, and
 * core::runClientSim a lone cell as a one-size pass, which may carry
 * a ServerWriteSink and hands it exactly the models' stream
 * (collectServerOps and runEndToEnd go through it).  Random, clock and
 * omniscient NVRAM policies, dirty-preferring replacement and dynamic
 * cache sizing replay on the models.
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
    NvramBytes,    ///< unified or write-aside NVRAM-size sweep
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
 * volatile model on the volatile axis, or the unified or write-aside
 * model with an LRU NVRAM on the NVRAM axis; every size holds at
 * least one block, at most kCurveMaxSizes sizes, no unmirrored
 * ablation (dirty preference, dynamic sizing) is configured, and a
 * sink comes only with exactly one size (it sees one interleaved
 * stream, which a pass over several sizes does not have).
 */
bool curveSupported(const CurveSpec &spec);

/**
 * The one-size spec of a single cell: `model` at its own size on its
 * model's axis (the volatile cache for the volatile model, the NVRAM
 * for the others).  runClientSim replays the cell this way when
 * curveSupported accepts it.
 */
CurveSpec cellSpec(const ModelConfig &model, std::uint64_t seed = 42);

/**
 * The per-size model grid equivalent to `spec`: one ModelConfig per
 * size with the swept field substituted.  runClientGrid groups it
 * back into one pass when curveSupported(spec) holds.
 */
std::vector<ModelConfig> curveGridModels(const CurveSpec &spec);

/**
 * Run the single-pass engine: one replay of `ops`, one Metrics row
 * per spec.sizes entry (in order).  Requires curveSupported(spec).
 * Bit-identical to a ClusterSim replay of each model of
 * curveGridModels(spec) with spec.seed; with one size and a sink, the
 * sink receives that replay's stream, event for event.
 */
std::vector<Metrics> runCurveSim(const prep::OpStream &ops,
                                 const CurveSpec &spec);

} // namespace nvfs::core

/**
 * @file
 * SweepRunner: the parallel experiment engine behind the figure/table
 * benches and the nvfs_sim sweep command.
 *
 * Every paper reproduction runs dozens of *independent* simulator
 * configurations (cache size x model x policy grids).  SweepRunner
 * fans such a grid out on the shared NVFS_JOBS pool's claim loop
 * (util::ThreadPool::forEach) and returns the results in submission
 * order, so a parallel sweep is bit-identical to the serial loop it
 * replaces: each task owns its ClusterSim/FileServer instance and its
 * own deterministic Rng, and the only shared state — the memoized
 * standardOps/standardLifetimes/standardOracle caches — is
 * mutex-guarded with stable references.
 */

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/sim/curve.hpp"
#include "core/sim/experiments.hpp"
#include "util/thread_pool.hpp"

namespace nvfs::core {

/** One server-study configuration in a sweep grid. */
struct ServerSweepConfig
{
    TimeUs duration = 24 * kUsPerHour;
    double scale = 1.0;
    Bytes nvramBufferBytes = 0; ///< 0 = baseline (no write buffer)
    std::uint64_t seed = 7;
};

/** Parallel experiment engine on the shared worker pool. */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = util::defaultJobCount() */
    explicit SweepRunner(unsigned jobs = 0);

    /** Worker threads a sweep will use. */
    unsigned jobs() const { return jobs_; }

    /**
     * Run every task and return their results in submission order.
     * R must be default-constructible and not bool (std::vector<bool>
     * packs results into shared words, so concurrent tasks would race
     * writing them).  The tasks run on the shared
     * NVFS_JOBS pool (util::ThreadPool::global()): the caller plus
     * min(tasks - 1, pool size, jobs() - 1) helpers, so jobs() above
     * NVFS_JOBS widens nothing beyond the pool.  Every task runs even
     * if some throw; then the lowest-index error is rethrown as a
     * util::TaskError naming its task ("sweep task 4: ...").
     */
    template <typename R>
    std::vector<R>
    map(const std::vector<std::function<R()>> &tasks) const
    {
        static_assert(!std::is_same_v<R, bool>);
        std::vector<R> results(tasks.size());
        util::ThreadPool::global().forEach(
            tasks.size(), jobs_,
            [](std::size_t i) { return "sweep task " + std::to_string(i); },
            [&](std::size_t i) { results[i] = tasks[i](); });
        return results;
    }

    /**
     * Sweep over a sequence of *points* (typically traces): each
     * point's `prepare(point)` (ingest + prep) and then
     * `replay(prepared)` run as one index of the shared pool's claim
     * loop, so up to jobs() points run concurrently and prepare and
     * replay must be safe to call from several threads at once.  The
     * results come back in point order.  A replay that runs a loop
     * of its own (the replay grid) shares the pool with the other
     * points in flight.  Every point runs even if some throw; then
     * the lowest-index error is rethrown as a util::TaskError naming
     * the point (its index, plus the point itself when it reads as a
     * string), as map does.
     */
    template <typename P, typename Prepare, typename Replay>
    auto
    runPipelined(const std::vector<P> &points, Prepare &&prepare,
                 Replay &&replay) const
        -> std::vector<std::invoke_result_t<
            Replay &, std::invoke_result_t<Prepare &, const P &>>>
    {
        using Prepared = std::invoke_result_t<Prepare &, const P &>;
        using R = std::invoke_result_t<Replay &, Prepared>;
        std::vector<std::optional<R>> slots(points.size());
        util::ThreadPool::global().forEach(
            points.size(), jobs_,
            [&points](std::size_t k) {
                std::string context = "sweep point " + std::to_string(k);
                if constexpr (std::is_convertible_v<const P &,
                                                    std::string>) {
                    context += " (";
                    context += points[k];
                    context += ")";
                }
                return context;
            },
            [&](std::size_t k) {
                slots[k].emplace(replay(prepare(points[k])));
            });
        std::vector<R> results;
        results.reserve(points.size());
        for (std::optional<R> &slot : slots)
            results.push_back(std::move(*slot));
        return results;
    }

    /**
     * Run one client simulation per model over a shared op stream
     * (the common figure grid).  Equivalent to calling runClientSim
     * on each model in order.
     */
    std::vector<Metrics>
    runClientSweep(const prep::OpStream &ops,
                   const std::vector<ModelConfig> &models,
                   std::uint64_t seed = 42) const;

    /**
     * Multi-size curve sweep: one Metrics row per spec.sizes entry,
     * in order.  It is the replay grid of curveGridModels(spec), which
     * runs as one single-pass CurveSim replay when curveSupported(spec)
     * holds and cell by cell otherwise; both are bit-identical to one
     * runClientSim per size (the curve_sim_test differential matrix).
     * spec.auditEvery is not used: the pass audits at the NVFS_AUDIT
     * cadence, as per-cell replays do.
     */
    std::vector<Metrics>
    runCurveSweep(const prep::OpStream &ops,
                  const CurveSpec &spec) const;

    /** Run one Section 3 server study per config. */
    std::vector<ServerRunResult>
    runServerSweep(const std::vector<ServerSweepConfig> &configs) const;

  private:
    unsigned jobs_;
};

} // namespace nvfs::core

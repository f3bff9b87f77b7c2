#include "core/sim/sweep.hpp"

namespace nvfs::core {

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs == 0 ? util::defaultJobCount() : jobs)
{
}

std::vector<Metrics>
SweepRunner::runClientSweep(const prep::OpStream &ops,
                            const std::vector<ModelConfig> &models,
                            std::uint64_t seed) const
{
    // The shared-op-stream model grid IS the replay grid: run it at
    // this runner's width.
    return runClientGrid(ops, models, seed, jobs_);
}

std::vector<Metrics>
SweepRunner::runCurveSweep(const prep::OpStream &ops,
                           const CurveSpec &spec) const
{
    return runClientGrid(ops, curveGridModels(spec), spec.seed, jobs_);
}

std::vector<ServerRunResult>
SweepRunner::runServerSweep(
    const std::vector<ServerSweepConfig> &configs) const
{
    std::vector<std::function<ServerRunResult()>> tasks;
    tasks.reserve(configs.size());
    for (const ServerSweepConfig &config : configs) {
        tasks.push_back([config] {
            return runServerSim(config.duration, config.scale,
                                config.nvramBufferBytes, config.seed);
        });
    }
    return map(tasks);
}

} // namespace nvfs::core

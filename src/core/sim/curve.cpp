#include "core/sim/curve.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/client/replay.hpp"
#include "core/sim/curve_clients.hpp"
#include "obs/obs.hpp"
#include "util/log.hpp"

namespace nvfs::core {

namespace {

/**
 * One replay for all sizes: file sizes, consistency state, coalescing
 * decisions and the sweep clock are size-independent and shared; the
 * per-size client state lives in the curve clients, and bypassed I/O
 * is charged to every size.
 */
template <typename Client>
std::vector<Metrics>
replayCurve(const prep::OpStream &ops, const CurveSpec &spec)
{
    ClusterConfig config;
    config.model = spec.base;
    config.auditEvery = spec.auditEvery;

    std::vector<Metrics> metrics(spec.sizes.size());
    FileSizeMap sizes;
    const std::uint32_t client_count =
        std::max<std::uint32_t>(1, ops.clientCount);
    std::vector<std::unique_ptr<Client>> clients;
    clients.reserve(client_count);
    for (std::uint32_t i = 0; i < client_count; ++i) {
        clients.push_back(std::make_unique<Client>(
            spec.base, spec.sizes, metrics, sizes));
    }
    replayOps(ops, config, clients, sizes, metrics);
    return metrics;
}

} // namespace

bool
curveSupported(const CurveSpec &spec)
{
    if (spec.sizes.empty() || spec.sizes.size() > kCurveMaxSizes)
        return false;
    for (const Bytes size : spec.sizes) {
        if (size / kBlockSize == 0)
            return false;
    }
    // A sink sees one interleaved stream, which only one size has.
    if (spec.base.sink != nullptr && spec.sizes.size() != 1)
        return false;
    // Ablations the clients do not mirror (see DESIGN.md §14).
    if (spec.base.dirtyPreference || spec.base.dynamicSizing)
        return false;
    switch (spec.axis) {
      case CurveAxis::VolatileBytes:
        return spec.base.kind == ModelKind::Volatile;
      case CurveAxis::NvramBytes:
        return spec.base.kind != ModelKind::Volatile &&
               spec.base.nvramPolicy == cache::PolicyKind::Lru &&
               spec.base.volatileBytes / kBlockSize > 0;
    }
    return false;
}

std::vector<ModelConfig>
curveGridModels(const CurveSpec &spec)
{
    std::vector<ModelConfig> models;
    models.reserve(spec.sizes.size());
    for (const Bytes size : spec.sizes) {
        ModelConfig model = spec.base;
        if (spec.axis == CurveAxis::VolatileBytes)
            model.volatileBytes = size;
        else
            model.nvramBytes = size;
        models.push_back(model);
    }
    return models;
}

CurveSpec
cellSpec(const ModelConfig &model, std::uint64_t seed)
{
    CurveSpec spec;
    spec.base = model;
    spec.seed = seed;
    if (model.kind == ModelKind::Volatile) {
        spec.axis = CurveAxis::VolatileBytes;
        spec.sizes = {model.volatileBytes};
    } else {
        spec.axis = CurveAxis::NvramBytes;
        spec.sizes = {model.nvramBytes};
    }
    return spec;
}

std::vector<Metrics>
runCurveSim(const prep::OpStream &ops, const CurveSpec &spec)
{
    NVFS_REQUIRE(curveSupported(spec),
                 "runCurveSim on an unsupported spec (use "
                 "runClientGrid for automatic fallback)");
    static const obs::Counter passes("curve.passes");
    static const obs::Counter sizes("curve.sizes");
    static const obs::Timer replayTimer("curve.replay");
    passes.add();
    sizes.add(spec.sizes.size());
    const obs::StageTimer stage(replayTimer, "curve.replay");
    std::vector<Metrics> metrics =
        spec.axis == CurveAxis::VolatileBytes
            ? replayCurve<curve::VolatileCurveClient>(ops, spec)
        : spec.base.kind == ModelKind::WriteAside
            ? replayCurve<curve::WriteAsideCurveClient>(ops, spec)
            : replayCurve<curve::UnifiedCurveClient>(ops, spec);
#if defined(__GLIBC__)
    // A pass over several sizes just freed its clients' state,
    // megabytes each, into the malloc arena of this thread.  Once large
    // frees have raised glibc's trim threshold, an arena keeps what it
    // frees, so with passes on several pool threads every arena would
    // hold a pass's worth; hand the pages back instead.  A one-size
    // pass frees no more than the model replay it stands for, which
    // never trimmed.
    if (spec.sizes.size() > 1)
        ::malloc_trim(0);
#endif
    return metrics;
}

} // namespace nvfs::core

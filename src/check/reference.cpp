#include "check/reference.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/client/unified_model.hpp"
#include "core/client/volatile_model.hpp"
#include "core/client/write_aside_model.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace nvfs::check {

using core::ClientModel;
using core::Metrics;
using core::ModelKind;
using core::WriteCause;

namespace {

/**
 * Model whose read, write and recallRange walk the range one block at
 * a time through the model's single-block bodies, never the batched
 * range operations.
 */
template <typename Model>
class PerBlock final : public Model
{
  public:
    using Model::Model;

    void
    read(FileId file, Bytes offset, Bytes length, TimeUs now) override
    {
        this->metrics_.appReadBytes += length;
        core::forEachBlock(file, offset, length,
                           [&](const cache::BlockId &id, Bytes, Bytes) {
                               this->readBlock(id, now);
                           });
    }

    void
    write(FileId file, Bytes offset, Bytes length, TimeUs now) override
    {
        this->metrics_.appWriteBytes += length;
        core::forEachBlock(file, offset, length,
                           [&](const cache::BlockId &id, Bytes begin,
                               Bytes end) {
                               this->writeBlock(id, begin, end, now);
                           });
    }

    Bytes
    recallRange(FileId file, Bytes offset, Bytes length,
                WriteCause cause, TimeUs now) override
    {
        Bytes flushed = 0;
        core::forEachBlock(file, offset, length,
                           [&](const cache::BlockId &id, Bytes, Bytes) {
                               flushed +=
                                   this->recallBlock(id, cause, now);
                           });
        return flushed;
    }
};

std::unique_ptr<ClientModel>
makePerBlockModel(const core::ModelConfig &config, Metrics &metrics,
                  const core::FileSizeMap &sizes, util::Rng &rng)
{
    switch (config.kind) {
      case ModelKind::Volatile:
        return std::make_unique<PerBlock<core::VolatileModel>>(
            config, metrics, sizes, rng);
      case ModelKind::WriteAside:
        return std::make_unique<PerBlock<core::WriteAsideModel>>(
            config, metrics, sizes, rng);
      case ModelKind::Unified:
        return std::make_unique<PerBlock<core::UnifiedModel>>(
            config, metrics, sizes, rng);
    }
    util::panic("unreachable model kind");
}

} // namespace

Metrics
runPerBlockReference(const prep::OpStream &ops,
                     const core::ClusterConfig &config)
{
    // Same construction order and Rng stream as ClusterSim, so random
    // replacement draws the same victims on both sides.
    util::Rng rng(config.seed);
    Metrics metrics;
    core::FileSizeMap sizes;
    const std::uint32_t client_count =
        std::max<std::uint32_t>(1, ops.clientCount);
    std::vector<std::unique_ptr<ClientModel>> clients;
    clients.reserve(client_count);
    for (std::uint32_t i = 0; i < client_count; ++i) {
        clients.push_back(
            makePerBlockModel(config.model, metrics, sizes, rng));
    }
    core::replayOps(ops, config, clients, sizes, {&metrics, 1},
                    /*coalesce=*/false);
    return metrics;
}

} // namespace nvfs::check

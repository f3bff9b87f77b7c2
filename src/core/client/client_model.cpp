#include "core/client/client_model.hpp"

#include <algorithm>
#include <string>

#include "core/client/unified_model.hpp"
#include "core/client/volatile_model.hpp"
#include "core/client/write_aside_model.hpp"
#include "util/log.hpp"

namespace nvfs::core {

std::string
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Volatile: return "volatile";
      case ModelKind::WriteAside: return "write-aside";
      case ModelKind::Unified: return "unified";
    }
    return "unknown";
}

ClientModel::ClientModel(const ModelConfig &config, Metrics &metrics,
                         const FileSizeMap &sizes)
    : config_(config), metrics_(metrics), sizes_(sizes)
{
}

Bytes
ClientModel::serverWriteBlock(const cache::BlockId &id,
                              WriteCause cause, TimeUs now)
{
    const Bytes bytes = blockTransferBytes(id, sizes_);
    metrics_.addServerWrite(cause, bytes);
    if (config_.sink)
        config_.sink->onServerWrite(now, id.file, id.index, bytes,
                                    cause);
    return bytes;
}

void
ClientModel::absorbBlock(const cache::CacheBlock &block, bool deleted)
{
    if (!block.isDirty())
        return;
    if (deleted)
        metrics_.absorbedDeletedBytes += block.dirtyBytes();
    else
        metrics_.absorbedOverwrittenBytes += block.dirtyBytes();
}

std::unique_ptr<ClientModel>
makeClientModel(const ModelConfig &config, Metrics &metrics,
                const FileSizeMap &sizes, util::Rng &rng)
{
    switch (config.kind) {
      case ModelKind::Volatile:
        return std::make_unique<VolatileModel>(config, metrics, sizes,
                                               rng);
      case ModelKind::WriteAside:
        return std::make_unique<WriteAsideModel>(config, metrics, sizes,
                                                 rng);
      case ModelKind::Unified:
        return std::make_unique<UnifiedModel>(config, metrics, sizes,
                                              rng);
    }
    util::panic("unreachable model kind");
}

} // namespace nvfs::core

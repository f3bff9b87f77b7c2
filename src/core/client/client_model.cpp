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
                         const FileSizeMap &sizes, util::Rng &rng)
    : config_(config), metrics_(metrics), sizes_(sizes), rng_(rng)
{
}

Bytes
ClientModel::rangeTransferBytes(FileId file, std::uint32_t first,
                                std::uint32_t last) const
{
    const Bytes *found = sizes_.find(file);
    const Bytes size = found == nullptr ? 0 : *found;
    Bytes total = Bytes{last - first + 1} * kBlockSize;
    const Bytes rem = size % kBlockSize;
    const auto size_block = static_cast<std::uint32_t>(size / kBlockSize);
    if (rem != 0 && size_block >= first && size_block <= last)
        total -= kBlockSize - rem;
    return total;
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

Bytes
ClientModel::serverWriteRun(FileId file, std::uint32_t first,
                            std::uint32_t last, WriteCause cause,
                            TimeUs now)
{
    const Bytes bytes = rangeTransferBytes(file, first, last);
    metrics_.addServerWrite(cause, bytes);
    if (config_.sink) {
        for (std::uint32_t b = first; b <= last; ++b) {
            config_.sink->onServerWrite(
                now, file, b,
                blockTransferBytes(cache::BlockId{file, b}, sizes_),
                cause);
        }
    }
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

#include "lfs/inode_map.hpp"

#include <algorithm>

namespace nvfs::lfs {

namespace {

/** First entry of `blocks` at or past block index `block`. */
template <typename Blocks>
auto
lowerBound(Blocks &blocks, std::uint32_t block)
{
    return std::lower_bound(
        blocks.begin(), blocks.end(), block,
        [](const auto &entry, std::uint32_t b) { return entry.block < b; });
}

} // namespace

std::optional<SegmentAddress>
InodeMap::locate(FileId file, std::uint32_t block) const
{
    const Blocks *blocks = files_.find(file);
    if (blocks == nullptr)
        return std::nullopt;
    const auto it = lowerBound(*blocks, block);
    if (it == blocks->end() || it->block != block)
        return std::nullopt;
    return it->address;
}

std::optional<SegmentAddress>
InodeMap::update(FileId file, std::uint32_t block,
                 SegmentAddress address)
{
    Blocks &blocks = files_[file];
    if (blocks.empty() || blocks.back().block < block) {
        blocks.push_back({block, address});
        return std::nullopt;
    }
    const auto it = lowerBound(blocks, block);
    if (it->block != block) {
        blocks.insert(it, {block, address});
        return std::nullopt;
    }
    const SegmentAddress old = it->address;
    it->address = address;
    return old;
}

std::vector<SegmentAddress>
InodeMap::removeFile(FileId file)
{
    std::vector<SegmentAddress> out;
    const Blocks *blocks = files_.find(file);
    if (blocks == nullptr)
        return out;
    out.reserve(blocks->size());
    for (const Entry &entry : *blocks)
        out.push_back(entry.address);
    files_.erase(file);
    return out;
}

std::vector<SegmentAddress>
InodeMap::truncate(FileId file, std::uint32_t first_dead)
{
    std::vector<SegmentAddress> out;
    Blocks *blocks = files_.find(file);
    if (blocks == nullptr)
        return out;
    const auto first = lowerBound(*blocks, first_dead);
    out.reserve(static_cast<std::size_t>(blocks->end() - first));
    for (auto it = first; it != blocks->end(); ++it)
        out.push_back(it->address);
    blocks->erase(first, blocks->end());
    if (blocks->empty())
        files_.erase(file);
    return out;
}

std::vector<std::pair<std::uint32_t, SegmentAddress>>
InodeMap::blocksOf(FileId file) const
{
    std::vector<std::pair<std::uint32_t, SegmentAddress>> out;
    const Blocks *blocks = files_.find(file);
    if (blocks == nullptr)
        return out;
    out.reserve(blocks->size());
    for (const Entry &entry : *blocks)
        out.emplace_back(entry.block, entry.address);
    return out;
}

std::size_t
InodeMap::blockCount() const
{
    std::size_t count = 0;
    files_.forEach(
        [&count](FileId, const Blocks &blocks) { count += blocks.size(); });
    return count;
}

bool
InodeMap::operator==(const InodeMap &other) const
{
    if (files_.size() != other.files_.size())
        return false;
    bool equal = true;
    files_.forEach([&](FileId file, const Blocks &blocks) {
        if (!equal)
            return;
        const Blocks *theirs = other.files_.find(file);
        equal = theirs != nullptr && *theirs == blocks;
    });
    return equal;
}

} // namespace nvfs::lfs

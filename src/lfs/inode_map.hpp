/**
 * @file
 * The inode map: where the latest version of every file block lives in
 * the log.  (Sprite LFS keeps this in the "inode map" plus per-file
 * metadata blocks; we collapse both into one lookup structure and
 * charge the metadata blocks at segment-write time.)
 *
 * Each file's blocks sit in one vector sorted by block index.  Writes
 * mostly extend a file, so an update is usually a push_back and any
 * other lookup is a binary search.  The crash explorer copies the map
 * at every seal commit; assigning into an existing map reuses its
 * vectors, so such a copy is one memcpy per file, not one tree node
 * per block.
 */

#pragma once

#include <optional>
#include <vector>

#include "lfs/segment.hpp"
#include "util/flat_map.hpp"

namespace nvfs::lfs {

/** Maps (file, block index) to the block's current log address. */
class InodeMap
{
  public:
    /** Current address of a block, if the block exists. */
    std::optional<SegmentAddress> locate(FileId file,
                                         std::uint32_t block) const;

    /**
     * Point a block at a new address.
     * @return the previous address if the block existed (the caller
     *         dead-ens that copy in its segment).
     */
    std::optional<SegmentAddress> update(FileId file,
                                         std::uint32_t block,
                                         SegmentAddress address);

    /** Remove a file entirely; returns the addresses of its blocks. */
    std::vector<SegmentAddress> removeFile(FileId file);

    /**
     * Remove blocks with index >= first_dead (truncation); returns
     * their addresses.
     */
    std::vector<SegmentAddress> truncate(FileId file,
                                         std::uint32_t first_dead);

    /** All (block, address) pairs of a file, ascending block index. */
    std::vector<std::pair<std::uint32_t, SegmentAddress>>
    blocksOf(FileId file) const;

    /**
     * Visit every mapped block as fn(file, block, address): files in
     * the map's (arbitrary) order, each file's blocks ascending.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        files_.forEach([&fn](FileId file, const Blocks &blocks) {
            for (const Entry &entry : blocks)
                fn(file, entry.block, entry.address);
        });
    }

    /** Number of mapped blocks across all files. */
    std::size_t blockCount() const;

    /** Number of files with at least one block. */
    std::size_t fileCount() const { return files_.size(); }

    /** Deep comparison (used by recovery tests). */
    bool operator==(const InodeMap &other) const;

  private:
    struct Entry
    {
        std::uint32_t block = 0;
        SegmentAddress address;

        bool operator==(const Entry &other) const = default;
    };

    /** A file's blocks, ascending block index; never empty. */
    using Blocks = std::vector<Entry>;

    util::FlatMap<FileId, Blocks, util::SplitMix64Hash> files_;
};

} // namespace nvfs::lfs

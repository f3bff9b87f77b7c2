/**
 * @file
 * Unit tests for the three client cache models, exercising each model
 * directly (no cluster sim) against the behaviours the paper
 * specifies: the volatile model's 30-second write-back and fsync
 * flushes; the write-aside model's NVRAM mirroring and fsync
 * absorption; the unified model's single-residency rule, demotion on
 * NVRAM replacement, and promotion on partial update.
 */

#include <gtest/gtest.h>

#include "core/client/client_model.hpp"
#include "core/client/unified_model.hpp"
#include "core/client/volatile_model.hpp"
#include "core/client/write_aside_model.hpp"

namespace nvfs::core {
namespace {

/** Shared fixture state for driving one model instance. */
class ModelTest : public ::testing::Test
{
  protected:
    Metrics metrics;
    FileSizeMap sizes;
    util::Rng rng{42};

    ModelConfig
    config(ModelKind kind, Bytes vol = 8 * kBlockSize,
           Bytes nv = 4 * kBlockSize)
    {
        ModelConfig c;
        c.kind = kind;
        c.volatileBytes = vol;
        c.nvramBytes = nv;
        return c;
    }

    /** Register a file size so transfers clip correctly. */
    void
    file(FileId id, Bytes size)
    {
        sizes[id] = size;
    }
};

// ------------------------------------------------------ volatile model

TEST_F(ModelTest, VolatileWriteStaysDirtyUntilWriteBack)
{
    file(1, 4096);
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.write(1, 0, 4096, secondsUs(1));
    EXPECT_EQ(model.dirtyBytes(), 4096u);
    EXPECT_EQ(metrics.totalServerWrites(), 0u);

    model.tick(secondsUs(10)); // younger than 30 s: nothing happens
    EXPECT_EQ(metrics.totalServerWrites(), 0u);

    model.tick(secondsUs(35));
    EXPECT_EQ(metrics.serverWrites(WriteCause::DelayedWriteBack),
              4096u);
    EXPECT_EQ(model.dirtyBytes(), 0u);
    // The block stays cached clean.
    EXPECT_TRUE(model.cache().contains({1, 0}));
}

TEST_F(ModelTest, VolatileFsyncFlushesOnlyThatFile)
{
    file(1, 4096);
    file(2, 4096);
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.write(1, 0, 4096, 1);
    model.write(2, 0, 4096, 2);
    model.fsync(1, 3);
    EXPECT_EQ(metrics.serverWrites(WriteCause::Fsync), 4096u);
    EXPECT_EQ(model.dirtyBytes(), 4096u); // file 2 still dirty
}

TEST_F(ModelTest, VolatileEvictionWritesBackDirtyVictim)
{
    VolatileModel model(config(ModelKind::Volatile, 2 * kBlockSize),
                        metrics, sizes, rng);
    file(1, 4096);
    file(2, 4096);
    file(3, 4096);
    model.write(1, 0, 4096, 1);
    model.write(2, 0, 4096, 2);
    model.write(3, 0, 4096, 3); // evicts file 1's block (LRU)
    EXPECT_EQ(metrics.serverWrites(WriteCause::Replacement), 4096u);
    EXPECT_FALSE(model.cache().contains({1, 0}));
}

TEST_F(ModelTest, VolatileDirtyPreferenceEvictsCleanFirst)
{
    ModelConfig c = config(ModelKind::Volatile, 2 * kBlockSize);
    c.dirtyPreference = true;
    VolatileModel model(c, metrics, sizes, rng);
    file(1, 4096);
    file(2, 4096);
    file(3, 4096);
    model.write(1, 0, 4096, 1); // dirty, LRU
    model.read(2, 0, 4096, 2);  // clean
    model.write(3, 0, 4096, 3); // must evict the clean block 2
    EXPECT_TRUE(model.cache().contains({1, 0}));
    EXPECT_FALSE(model.cache().contains({2, 0}));
    EXPECT_EQ(metrics.serverWrites(WriteCause::Replacement), 0u);
}

TEST_F(ModelTest, VolatileReadMissFetchesClippedBlock)
{
    file(1, 1000); // less than one block
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.read(1, 0, 1000, 1);
    EXPECT_EQ(metrics.serverReadBytes, 1000u);
    EXPECT_EQ(metrics.appReadBytes, 1000u);
    model.read(1, 0, 1000, 2); // hit: no more fetches
    EXPECT_EQ(metrics.serverReadBytes, 1000u);
}

TEST_F(ModelTest, VolatileDeleteAbsorbsDirtyBytes)
{
    file(1, 8192);
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.write(1, 0, 8192, 1);
    model.removeFile(1, 2);
    EXPECT_EQ(metrics.absorbedDeletedBytes, 8192u);
    EXPECT_EQ(metrics.totalServerWrites(), 0u);
    EXPECT_EQ(model.dirtyBytes(), 0u);
}

TEST_F(ModelTest, VolatileTruncateDropsTailAndTrimsBoundary)
{
    file(1, 2 * kBlockSize);
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.write(1, 0, 2 * kBlockSize, 1);
    model.truncate(1, kBlockSize / 2, 2); // keep half a block
    // Block 1 dropped entirely; block 0's upper half trimmed.
    EXPECT_FALSE(model.cache().contains({1, 1}));
    EXPECT_EQ(model.dirtyBytes(), kBlockSize / 2);
    EXPECT_EQ(metrics.absorbedDeletedBytes,
              kBlockSize + kBlockSize / 2);
}

TEST_F(ModelTest, VolatileOverwriteAbsorption)
{
    file(1, 4096);
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.write(1, 0, 4096, 1);
    model.write(1, 0, 4096, 2); // overwrites its own dirty bytes
    EXPECT_EQ(metrics.absorbedOverwrittenBytes, 4096u);
    EXPECT_EQ(metrics.appWriteBytes, 8192u);
}

TEST_F(ModelTest, VolatileFinishFlushesEverything)
{
    file(1, 4096);
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.write(1, 0, 4096, 1);
    model.finish(2);
    EXPECT_EQ(metrics.serverWrites(WriteCause::EndOfTrace), 4096u);
    EXPECT_EQ(model.dirtyBytes(), 0u);
}

// --------------------------------------------------- write-aside model

TEST_F(ModelTest, WriteAsideMirrorsDirtyBlocks)
{
    file(1, 4096);
    WriteAsideModel model(config(ModelKind::WriteAside), metrics,
                          sizes, rng);
    model.write(1, 0, 4096, 1);
    EXPECT_TRUE(model.volatileCache().contains({1, 0}));
    EXPECT_TRUE(model.nvramCache().contains({1, 0}));
    EXPECT_EQ(model.dirtyBytes(), 4096u);
    ASSERT_NO_THROW(model.auditInvariants());
    // Twice the bus traffic of a single-cache write.
    EXPECT_EQ(metrics.busBytes, 2 * 4096u);
}

TEST_F(ModelTest, WriteAsideFsyncAbsorbed)
{
    file(1, 4096);
    WriteAsideModel model(config(ModelKind::WriteAside), metrics,
                          sizes, rng);
    model.write(1, 0, 4096, 1);
    model.fsync(1, 2);
    EXPECT_EQ(metrics.totalServerWrites(), 0u);
    EXPECT_EQ(model.dirtyBytes(), 4096u); // still protected in NVRAM
}

TEST_F(ModelTest, WriteAsideNoWriteBackTimer)
{
    file(1, 4096);
    WriteAsideModel model(config(ModelKind::WriteAside), metrics,
                          sizes, rng);
    model.write(1, 0, 4096, 1);
    model.tick(secondsUs(120)); // default no-op
    EXPECT_EQ(metrics.totalServerWrites(), 0u);
}

TEST_F(ModelTest, WriteAsideNvramReplacementCleansVolatileCopy)
{
    // NVRAM of 2 blocks; third dirty block evicts the LRU NVRAM entry.
    WriteAsideModel model(
        config(ModelKind::WriteAside, 8 * kBlockSize, 2 * kBlockSize),
        metrics, sizes, rng);
    for (FileId f = 1; f <= 3; ++f)
        file(f, 4096);
    model.write(1, 0, 4096, 1);
    model.write(2, 0, 4096, 2);
    model.write(3, 0, 4096, 3);
    EXPECT_EQ(metrics.serverWrites(WriteCause::Replacement), 4096u);
    EXPECT_FALSE(model.nvramCache().contains({1, 0}));
    // The volatile duplicate is now clean but still cached.
    ASSERT_TRUE(model.volatileCache().contains({1, 0}));
    EXPECT_FALSE(model.volatileCache().peek({1, 0})->isDirty());
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(ModelTest, WriteAsideVolatileEvictionInvalidatesBoth)
{
    WriteAsideModel model(
        config(ModelKind::WriteAside, 2 * kBlockSize, 4 * kBlockSize),
        metrics, sizes, rng);
    for (FileId f = 1; f <= 3; ++f)
        file(f, 4096);
    model.write(1, 0, 4096, 1);
    model.write(2, 0, 4096, 2);
    model.write(3, 0, 4096, 3); // volatile eviction of file 1
    EXPECT_EQ(metrics.serverWrites(WriteCause::Replacement), 4096u);
    EXPECT_FALSE(model.volatileCache().contains({1, 0}));
    EXPECT_FALSE(model.nvramCache().contains({1, 0}));
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(ModelTest, WriteAsideNvramNeverReadOnReadPath)
{
    file(1, 4096);
    WriteAsideModel model(config(ModelKind::WriteAside), metrics,
                          sizes, rng);
    model.write(1, 0, 4096, 1);
    model.read(1, 0, 4096, 2);
    EXPECT_EQ(metrics.nvramReadAccesses, 0u);
}

TEST_F(ModelTest, WriteAsideRecallFlushesAndInvalidates)
{
    file(1, 8192);
    WriteAsideModel model(config(ModelKind::WriteAside), metrics,
                          sizes, rng);
    model.write(1, 0, 8192, 1);
    model.recall(1, WriteCause::Callback, 2);
    EXPECT_EQ(metrics.serverWrites(WriteCause::Callback), 8192u);
    EXPECT_FALSE(model.volatileCache().contains({1, 0}));
    EXPECT_FALSE(model.nvramCache().contains({1, 0}));
}

// A cut below every dirty byte of the boundary block leaves it clean;
// the write-aside NVRAM holds dirty blocks only, so its copy must go.
TEST_F(ModelTest, WriteAsideTruncateDropsBoundaryBlockItCleans)
{
    file(1, 73360 + 8192);
    WriteAsideModel model(config(ModelKind::WriteAside), metrics,
                          sizes, rng);
    model.write(1, 73360, 8192, 1);
    model.truncate(1, 71568, 2);
    file(1, 71568);
    EXPECT_EQ(model.nvramCache().size(), 0u);
    EXPECT_NO_THROW(model.auditInvariants());
    model.finish(3);
    EXPECT_EQ(metrics.totalServerWrites(), 0u);
}

// ------------------------------------------------------- unified model

TEST_F(ModelTest, UnifiedWriteGoesOnlyToNvram)
{
    file(1, 4096);
    UnifiedModel model(config(ModelKind::Unified), metrics, sizes,
                       rng);
    model.write(1, 0, 4096, 1);
    EXPECT_TRUE(model.nvramCache().contains({1, 0}));
    EXPECT_FALSE(model.volatileCache().contains({1, 0}));
    EXPECT_EQ(metrics.busBytes, 4096u); // single memory write
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(ModelTest, UnifiedReadsServedFromEitherMemory)
{
    file(1, 4096);
    file(2, 4096);
    UnifiedModel model(config(ModelKind::Unified), metrics, sizes,
                       rng);
    model.write(1, 0, 4096, 1); // resident in NVRAM
    model.read(2, 0, 4096, 2);  // miss: placed in volatile
    metrics.serverReadBytes = 0;
    model.read(1, 0, 4096, 3);
    model.read(2, 0, 4096, 4);
    EXPECT_EQ(metrics.serverReadBytes, 0u); // both were hits
    EXPECT_GT(metrics.nvramReadAccesses, 0u);
}

TEST_F(ModelTest, UnifiedFsyncAbsorbed)
{
    file(1, 4096);
    UnifiedModel model(config(ModelKind::Unified), metrics, sizes,
                       rng);
    model.write(1, 0, 4096, 1);
    model.fsync(1, 2);
    EXPECT_EQ(metrics.totalServerWrites(), 0u);
}

TEST_F(ModelTest, UnifiedNvramReplacementDemotesVictim)
{
    // 1-block NVRAM: the second write evicts and demotes the first.
    UnifiedModel model(
        config(ModelKind::Unified, 8 * kBlockSize, kBlockSize),
        metrics, sizes, rng);
    file(1, 4096);
    file(2, 4096);
    model.write(1, 0, 4096, 1);
    model.write(2, 0, 4096, 2);
    EXPECT_EQ(metrics.serverWrites(WriteCause::Replacement), 4096u);
    EXPECT_TRUE(model.nvramCache().contains({2, 0}));
    // Victim demoted into the volatile cache as a clean copy.
    ASSERT_TRUE(model.volatileCache().contains({1, 0}));
    EXPECT_FALSE(model.volatileCache().peek({1, 0})->isDirty());
    EXPECT_EQ(metrics.nvramToCacheBytes, 4096u);
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(ModelTest, UnifiedDemotionSkippedWhenVictimOlderThanLru)
{
    UnifiedModel model(
        config(ModelKind::Unified, kBlockSize, kBlockSize), metrics,
        sizes, rng);
    file(1, 4096);
    file(2, 4096);
    file(3, 4096);
    model.write(1, 0, 4096, 1);  // NVRAM
    model.read(2, 0, 4096, 100); // volatile (much younger)
    model.write(3, 0, 4096, 200); // evicts block 1 (older than LRU)
    EXPECT_FALSE(model.volatileCache().contains({1, 0}));
    EXPECT_TRUE(model.volatileCache().contains({2, 0}));
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(ModelTest, UnifiedPartialUpdatePromotesFromVolatile)
{
    file(1, 4096);
    UnifiedModel model(config(ModelKind::Unified), metrics, sizes,
                       rng);
    model.read(1, 0, 4096, 1); // clean block in volatile
    ASSERT_TRUE(model.volatileCache().contains({1, 0}));
    model.write(1, 100, 200, 2); // partial update
    EXPECT_FALSE(model.volatileCache().contains({1, 0}));
    EXPECT_TRUE(model.nvramCache().contains({1, 0}));
    EXPECT_EQ(metrics.cacheToNvramBytes, 4096u);
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(ModelTest, UnifiedReadPlacementUsesNvramWhenVolatileFull)
{
    // Volatile of 1 block, NVRAM of 2: second read miss goes to NVRAM.
    UnifiedModel model(
        config(ModelKind::Unified, kBlockSize, 2 * kBlockSize),
        metrics, sizes, rng);
    file(1, 4096);
    file(2, 4096);
    model.read(1, 0, 4096, 1);
    model.read(2, 0, 4096, 2);
    EXPECT_TRUE(model.volatileCache().contains({1, 0}));
    EXPECT_TRUE(model.nvramCache().contains({2, 0}));
    EXPECT_FALSE(model.nvramCache().peek({2, 0})->isDirty());
    ASSERT_NO_THROW(model.auditInvariants());
}

TEST_F(ModelTest, UnifiedRecallFlushesDirtyAndInvalidates)
{
    file(1, 2 * kBlockSize);
    UnifiedModel model(config(ModelKind::Unified), metrics, sizes,
                       rng);
    model.write(1, 0, 2 * kBlockSize, 1);
    model.recall(1, WriteCause::Callback, 2);
    EXPECT_EQ(metrics.serverWrites(WriteCause::Callback),
              2 * kBlockSize);
    EXPECT_FALSE(model.nvramCache().contains({1, 0}));
    EXPECT_EQ(model.dirtyBytes(), 0u);
}

TEST_F(ModelTest, UnifiedDeleteAbsorbs)
{
    file(1, 4096);
    UnifiedModel model(config(ModelKind::Unified), metrics, sizes,
                       rng);
    model.write(1, 0, 4096, 1);
    model.removeFile(1, 2);
    EXPECT_EQ(metrics.absorbedDeletedBytes, 4096u);
    EXPECT_EQ(metrics.totalServerWrites(), 0u);
}

TEST_F(ModelTest, UnifiedFinishCountsEndOfTrace)
{
    file(1, 4096);
    UnifiedModel model(config(ModelKind::Unified), metrics, sizes,
                       rng);
    model.write(1, 0, 4096, 1);
    model.finish(10);
    EXPECT_EQ(metrics.serverWrites(WriteCause::EndOfTrace), 4096u);
}

// ------------------------------------------------------------ factory

TEST_F(ModelTest, FactoryBuildsEachKind)
{
    for (const auto kind :
         {ModelKind::Volatile, ModelKind::WriteAside,
          ModelKind::Unified}) {
        auto model = makeClientModel(config(kind), metrics, sizes, rng);
        ASSERT_NE(model, nullptr);
        file(1, 4096);
        model->write(1, 0, 4096, 1);
        EXPECT_EQ(model->dirtyBytes(), 4096u)
            << modelKindName(kind);
    }
}

TEST_F(ModelTest, ModelNames)
{
    EXPECT_EQ(modelKindName(ModelKind::Volatile), "volatile");
    EXPECT_EQ(modelKindName(ModelKind::WriteAside), "write-aside");
    EXPECT_EQ(modelKindName(ModelKind::Unified), "unified");
}

TEST_F(ModelTest, BlockTransferClipsAtEof)
{
    file(1, 1000);
    VolatileModel model(config(ModelKind::Volatile), metrics, sizes,
                        rng);
    model.write(1, 0, 1000, 1);
    model.finish(2);
    // The whole-block write-back is clipped to the 1000-byte file.
    EXPECT_EQ(metrics.serverWrites(WriteCause::EndOfTrace), 1000u);
}

} // namespace
} // namespace nvfs::core

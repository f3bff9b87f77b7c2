/**
 * @file
 * Differential tests for the parallel ingest/prep pipeline: the
 * mmap-chunked trace readers and the sharded prep passes must be
 * byte-identical to their serial references for every worker count,
 * on every bundled trace, and the replayed metrics must not move for
 * any trace x model x engine combination.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/reference.hpp"
#include "core/lifetime/lifetime.hpp"
#include "core/lifetime/next_modify.hpp"
#include "core/sim/experiments.hpp"
#include "prep/characterize.hpp"
#include "prep/converter.hpp"
#include "trace/codec.hpp"
#include "trace/stream.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace nvfs {
namespace {

/** Fresh temp dir per test, cleaned of any previous run's leftovers. */
std::string
tempDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Serial reference binary reader: the istream codec the mmap reader
 * replaced, event by event in file order.
 */
trace::TraceBuffer
serialReadBinary(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    trace::TraceBuffer buffer;
    buffer.header = trace::decodeHeader(in);
    buffer.events.reserve(buffer.header.eventCount);
    while (auto event = trace::decodeEvent(in))
        buffer.events.push_back(*event);
    return buffer;
}

/** Serial reference text reader: getline + parseTextEvent. */
trace::TraceBuffer
serialReadText(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    trace::TraceBuffer buffer;
    std::string line;
    while (std::getline(in, line)) {
        if (const auto event = trace::parseTextEvent(line))
            buffer.events.push_back(*event);
    }
    buffer.header.eventCount = buffer.events.size();
    return buffer;
}

void
expectSameEvents(const trace::TraceBuffer &got,
                 const trace::TraceBuffer &want,
                 const std::string &label)
{
    ASSERT_EQ(got.events.size(), want.events.size()) << label;
    for (std::size_t i = 0; i < want.events.size(); ++i)
        ASSERT_TRUE(got.events[i] == want.events[i])
            << label << ": event " << i << " diverged";
}

TEST(ParallelIngest, BinaryReaderMatchesSerialOnAllBundledTraces)
{
    const std::string dir = tempDir("nvfs_par_ingest_bin");
    for (int t = 1; t <= 8; ++t) {
        const std::string path =
            dir + "/trace" + std::to_string(t) + ".nvt";
        trace::writeTraceFile(
            path, workload::generateStandardTrace(t, 0.01));
        const trace::TraceBuffer reference = serialReadBinary(path);
        for (const unsigned jobs : {1u, 2u, 8u}) {
            util::ThreadPool pool(jobs);
            const trace::TraceBuffer parallel =
                trace::readTraceFile(path, &pool);
            const std::string label = "trace " + std::to_string(t) +
                                      " at " + std::to_string(jobs) +
                                      " jobs";
            EXPECT_TRUE(parallel.header == reference.header) << label;
            expectSameEvents(parallel, reference, label);
        }
    }
}

TEST(ParallelIngest, TextReaderMatchesSerialOnBundledTraces)
{
    const std::string dir = tempDir("nvfs_par_ingest_text");
    for (const int t : {1, 3, 7}) {
        const std::string path =
            dir + "/trace" + std::to_string(t) + ".txt";
        trace::writeTraceText(
            path, workload::generateStandardTrace(t, 0.01));
        const trace::TraceBuffer reference = serialReadText(path);
        for (const unsigned jobs : {1u, 2u, 8u}) {
            util::ThreadPool pool(jobs);
            const trace::TraceBuffer parallel =
                trace::readTraceText(path, &pool);
            const std::string label = "trace " + std::to_string(t) +
                                      " at " + std::to_string(jobs) +
                                      " jobs";
            EXPECT_EQ(parallel.header.eventCount,
                      reference.header.eventCount)
                << label;
            expectSameEvents(parallel, reference, label);
        }
    }
}

TEST(ParallelIngest, TextReaderHandlesChunkBoundaries)
{
    // A file spanning several 256 KiB parse chunks, with comment and
    // blank lines mixed in, so lines land on and across every kind of
    // chunk boundary.  The parallel reader must agree with the serial
    // getline loop exactly.
    trace::TraceBuffer big = workload::generateStandardTrace(3, 0.02);
    const std::vector<trace::Event> base = big.events;
    while (big.events.size() < 40000)
        big.events.insert(big.events.end(), base.begin(), base.end());

    const std::string dir = tempDir("nvfs_par_ingest_chunks");
    const std::string path = dir + "/big.txt";
    trace::writeTraceText(path, big);
    {
        std::ofstream append(path, std::ios::app);
        append << "# trailing comment\n\n";
    }
    ASSERT_GT(std::filesystem::file_size(path), 3u * 256u * 1024u)
        << "test file too small to exercise multiple chunks";

    const trace::TraceBuffer reference = serialReadText(path);
    ASSERT_EQ(reference.events.size(), big.events.size());
    for (const unsigned jobs : {1u, 2u, 8u}) {
        util::ThreadPool pool(jobs);
        const trace::TraceBuffer parallel =
            trace::readTraceText(path, &pool);
        expectSameEvents(parallel, reference,
                         std::to_string(jobs) + " jobs");
    }
}

TEST(ParallelIngestDeath, BinaryErrorsNamePathAndRecord)
{
    const std::string dir = tempDir("nvfs_par_ingest_err");

    // Too short for a header.
    const std::string stub = dir + "/stub.nvt";
    std::ofstream(stub, std::ios::binary) << "short";
    EXPECT_EXIT(trace::readTraceFile(stub),
                testing::ExitedWithCode(1),
                "truncated trace header: .*stub\\.nvt");

    // Whole records plus stray trailing bytes.
    const std::string torn = dir + "/torn.nvt";
    trace::writeTraceFile(torn,
                          workload::generateStandardTrace(7, 0.01));
    {
        std::ofstream append(torn,
                             std::ios::binary | std::ios::app);
        append << "xyz";
    }
    EXPECT_EXIT(trace::readTraceFile(torn),
                testing::ExitedWithCode(1),
                "truncated trace record: .*torn\\.nvt has 3 stray");

    // Header count disagrees with the records on disk.
    const std::string counted = dir + "/counted.nvt";
    trace::TraceBuffer lying =
        workload::generateStandardTrace(7, 0.01);
    ASSERT_GE(lying.events.size(), 2u);
    {
        // writeTraceFile fixes up eventCount, so forge the header by
        // truncating whole records off a valid file instead.
        trace::writeTraceFile(counted, lying);
        const auto size = std::filesystem::file_size(counted);
        std::filesystem::resize_file(counted,
                                     size - trace::kRecordSize);
    }
    EXPECT_EXIT(trace::readTraceFile(counted),
                testing::ExitedWithCode(1),
                "header claims .* events, found");

    // A record whose event-type byte is garbage: the parallel decode
    // must report the *earliest* bad record, by index.
    const std::string corrupt = dir + "/corrupt.nvt";
    trace::writeTraceFile(corrupt, lying);
    {
        std::fstream patch(corrupt, std::ios::binary | std::ios::in |
                                        std::ios::out);
        // The type byte sits after time/offset/length (u64 x3),
        // file/pid (u32 x2), and client/targetClient (u16 x2) — byte
        // 36 of the record (see encodeEvent).  Clobber record 1's.
        patch.seekp(static_cast<std::streamoff>(
            trace::kTraceHeaderSize + trace::kRecordSize + 36));
        patch.put(static_cast<char>(0xEE));
    }
    EXPECT_EXIT(trace::readTraceFile(corrupt),
                testing::ExitedWithCode(1),
                "corrupt trace record: bad event type "
                "\\(.*corrupt\\.nvt, record 1\\)");

    EXPECT_EXIT(trace::readTraceFile(dir + "/missing.nvt"),
                testing::ExitedWithCode(1),
                "cannot open trace file: .*missing\\.nvt \\(");
}

TEST(ParallelIngestDeath, TextParseErrorReportsLowestLine)
{
    const std::string dir = tempDir("nvfs_par_ingest_text_err");
    const std::string path = dir + "/bad.txt";
    trace::writeTraceText(path,
                          workload::generateStandardTrace(7, 0.01));
    std::size_t lines = 0;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            ++lines;
    }
    {
        std::ofstream append(path, std::ios::app);
        append << "notanumber open stuff\n";
        append << "alsobad open stuff\n"; // later error must lose
    }
    const std::string want =
        "bad\\.txt:" + std::to_string(lines + 1) + ": ";
    EXPECT_EXIT(trace::readTraceText(path),
                testing::ExitedWithCode(1), want);
}

void
expectSameAccumulator(const util::Accumulator &got,
                      const util::Accumulator &want,
                      const std::string &label)
{
    EXPECT_EQ(got.count(), want.count()) << label;
    EXPECT_EQ(got.sum(), want.sum()) << label;
    EXPECT_EQ(got.min(), want.min()) << label;
    EXPECT_EQ(got.max(), want.max()) << label;
    EXPECT_EQ(got.variance(), want.variance()) << label;
}

TEST(ParallelPrep, CharacterizeBitIdenticalAcrossWidths)
{
    for (const int t : {3, 7}) {
        const prep::OpStream ops = prep::convertTrace(
            workload::generateStandardTrace(t, 0.02));
        util::ThreadPool one(1);
        const prep::WorkloadProfile want =
            prep::characterize(ops, &one);
        for (const unsigned jobs : {2u, 8u}) {
            util::ThreadPool pool(jobs);
            const prep::WorkloadProfile got =
                prep::characterize(ops, &pool);
            const std::string label = "trace " + std::to_string(t) +
                                      " at " + std::to_string(jobs) +
                                      " jobs";
            expectSameAccumulator(got.readSize, want.readSize,
                                  label + " readSize");
            expectSameAccumulator(got.writeSize, want.writeSize,
                                  label + " writeSize");
            expectSameAccumulator(got.fileSize, want.fileSize,
                                  label + " fileSize");
            expectSameAccumulator(got.openSeconds, want.openSeconds,
                                  label + " openSeconds");
            EXPECT_EQ(got.readBytes, want.readBytes) << label;
            EXPECT_EQ(got.writeBytes, want.writeBytes) << label;
            EXPECT_EQ(got.opens, want.opens) << label;
            EXPECT_EQ(got.deletes, want.deletes) << label;
            EXPECT_EQ(got.fsyncs, want.fsyncs) << label;
            EXPECT_EQ(got.sequentialReadFraction,
                      want.sequentialReadFraction)
                << label;
            EXPECT_EQ(got.sequentialWriteFraction,
                      want.sequentialWriteFraction)
                << label;
            EXPECT_EQ(got.readOnlyOpenFraction,
                      want.readOnlyOpenFraction)
                << label;
            EXPECT_EQ(got.writeOnlyOpenFraction,
                      want.writeOnlyOpenFraction)
                << label;
        }
    }
}

TEST(ParallelPrep, LifetimesBitIdenticalAcrossWidths)
{
    for (const int t : {3, 7}) {
        const prep::OpStream ops = prep::convertTrace(
            workload::generateStandardTrace(t, 0.02));
        util::ThreadPool one(1);
        const core::LifetimeResult want =
            core::analyzeLifetimes(ops, &one);
        for (const unsigned jobs : {2u, 8u}) {
            util::ThreadPool pool(jobs);
            const core::LifetimeResult got =
                core::analyzeLifetimes(ops, &pool);
            const std::string label = "trace " + std::to_string(t) +
                                      " at " + std::to_string(jobs) +
                                      " jobs";
            EXPECT_EQ(got.totalWritten, want.totalWritten) << label;
            EXPECT_EQ(got.byFate, want.byFate) << label;
            ASSERT_EQ(got.runs.size(), want.runs.size()) << label;
            for (std::size_t i = 0; i < want.runs.size(); ++i) {
                const core::ByteRun &a = got.runs[i];
                const core::ByteRun &b = want.runs[i];
                ASSERT_TRUE(a.file == b.file && a.begin == b.begin &&
                            a.end == b.end && a.birth == b.birth &&
                            a.death == b.death && a.fate == b.fate)
                    << label << ": run " << i << " diverged";
            }
        }
    }
}

TEST(ParallelPrep, NextModifyIndexAgreesAcrossWidths)
{
    const prep::OpStream ops = prep::convertTrace(
        workload::generateStandardTrace(7, 0.02));
    util::ThreadPool one(1);
    const core::NextModifyIndex want(ops, &one);
    // Probe around every write op's first block: just before, at, and
    // after the op time — the full lookup surface the replay uses.
    for (const unsigned jobs : {2u, 8u}) {
        util::ThreadPool pool(jobs);
        const core::NextModifyIndex got(ops, &pool);
        EXPECT_EQ(got.blockCount(), want.blockCount())
            << jobs << " jobs";
        std::size_t probed = 0;
        for (std::size_t i = 0;
             i < ops.ops.size() && probed < 2000; ++i) {
            const prep::Op op = ops.ops[i];
            if (op.type != prep::OpType::Write)
                continue;
            ++probed;
            const cache::BlockId id{
                op.file, static_cast<std::uint32_t>(
                             op.offset / kBlockSize)};
            for (const TimeUs after :
                 {op.time == 0 ? TimeUs{0} : op.time - 1, op.time,
                  op.time + 1}) {
                ASSERT_EQ(got.nextModify(id, after),
                          want.nextModify(id, after))
                    << "op " << i << " at " << jobs << " jobs";
            }
        }
        EXPECT_GT(probed, 0u);
    }
}

TEST(ParallelIngest, ReplayIdenticalAcrossWidthsForEveryCombo)
{
    // The acceptance matrix: every bundled trace x model.  Ops
    // ingested+prepped at 8 jobs must equal the 1-job ops, and the
    // simulated metrics must be byte-identical either way — and equal
    // to the per-block reference engine's.
    const std::string dir = tempDir("nvfs_par_ingest_replay");
    for (int t = 1; t <= 8; ++t) {
        const std::string path =
            dir + "/trace" + std::to_string(t) + ".nvt";
        trace::writeTraceFile(
            path, workload::generateStandardTrace(t, 0.01));

        util::ThreadPool one(1);
        util::ThreadPool eight(8);
        const prep::OpStream serial_ops =
            prep::convertTrace(trace::readTraceFile(path, &one));
        const prep::OpStream parallel_ops =
            prep::convertTrace(trace::readTraceFile(path, &eight));
        ASSERT_TRUE(parallel_ops.ops == serial_ops.ops)
            << "trace " << t << ": parallel ingest changed the ops";

        for (const auto kind :
             {core::ModelKind::Volatile, core::ModelKind::WriteAside,
              core::ModelKind::Unified}) {
            core::ClusterConfig config;
            config.model.kind = kind;
            config.model.volatileBytes = 4 * kMiB;
            config.model.nvramBytes = kMiB;
            const core::Metrics a =
                core::runClientSim(serial_ops, config.model);
            const core::Metrics b =
                core::runClientSim(parallel_ops, config.model);
            EXPECT_EQ(a, b) << "trace " << t << " model "
                            << core::modelKindName(kind)
                            << " diverged";
            EXPECT_EQ(b,
                      check::runPerBlockReference(parallel_ops, config))
                << "trace " << t << " model "
                << core::modelKindName(kind)
                << " diverged from the per-block reference";
        }
    }
}

} // namespace
} // namespace nvfs

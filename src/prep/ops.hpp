/**
 * @file
 * The canonical operation stream consumed by every simulator pass.
 *
 * Pass 1 of the paper: "We first processed the trace data to convert
 * it into read, write, delete, flush, and invalidate operations on
 * ranges of bytes."  Op is that processed form.  Consistency-driven
 * flushes and invalidations are *derived* by the simulator's server
 * state from Open/Close ops, so the op stream carries opens and closes
 * through (they drive the consistency engine but transfer no bytes
 * themselves).
 *
 * Storage is structure-of-arrays: OpColumns keeps one contiguous
 * column per field, so the sequential replay loops stream through
 * homogeneous cache lines (a replay that only needs time/type/file
 * never loads offsets or pids).  Op remains the convenient
 * row-wise view: push_back() accepts one, operator[] and the iterator
 * materialize one, so row-oriented callers (tests, converters,
 * characterization) keep their shape.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace nvfs::prep {

/** Kind of a processed operation. */
enum class OpType : std::uint8_t {
    Read = 0,   ///< read [offset, offset+length) of file
    Write,      ///< write [offset, offset+length) of file
    Delete,     ///< delete the file (all bytes die)
    Truncate,   ///< drop bytes at or beyond `length`
    Fsync,      ///< application fsync of file
    Open,       ///< drives the consistency engine
    Close,      ///< ditto
    Migrate,    ///< process migrated; flush its dirty data
    End,        ///< end of trace
};

/** One processed operation on a byte range (row-wise view). */
struct Op
{
    TimeUs time = 0;
    Bytes offset = 0;
    Bytes length = 0;
    FileId file = kNoFile;
    ProcId pid = 0;
    ClientId client = 0;
    ClientId targetClient = 0; ///< Migrate: destination
    OpType type = OpType::End;
    bool openForWrite = false; ///< Open only
    bool openForRead = false;  ///< Open only

    bool operator==(const Op &other) const = default;
};

/** Open-mode bits packed into OpColumns::openFlags. */
inline constexpr std::uint8_t kOpenForWrite = 1u << 0;
inline constexpr std::uint8_t kOpenForRead = 1u << 1;

/**
 * Structure-of-arrays op storage.  The columns are public and must be
 * kept the same length; mutate through push_back()/clear()/resize().
 */
class OpColumns
{
  public:
    std::vector<TimeUs> time;
    std::vector<Bytes> offset;
    std::vector<Bytes> length;
    std::vector<FileId> file;
    std::vector<ProcId> pid;
    std::vector<ClientId> client;
    std::vector<ClientId> targetClient;
    std::vector<OpType> type;
    std::vector<std::uint8_t> openFlags; ///< kOpenForWrite|kOpenForRead

    OpColumns() = default;

    /** Column-ize a row-wise vector (test fixtures). */
    OpColumns(std::vector<Op> ops) // NOLINT(google-explicit-constructor)
    {
        reserve(ops.size());
        for (const Op &op : ops)
            push_back(op);
    }

    OpColumns &
    operator=(std::vector<Op> ops)
    {
        *this = OpColumns(std::move(ops));
        return *this;
    }

    std::size_t size() const { return time.size(); }
    bool empty() const { return time.empty(); }

    void
    reserve(std::size_t n)
    {
        time.reserve(n);
        offset.reserve(n);
        length.reserve(n);
        file.reserve(n);
        pid.reserve(n);
        client.reserve(n);
        targetClient.reserve(n);
        type.reserve(n);
        openFlags.reserve(n);
    }

    /** Resize every column (bulk loads fill them afterwards). */
    void
    resize(std::size_t n)
    {
        time.resize(n);
        offset.resize(n);
        length.resize(n);
        file.resize(n);
        pid.resize(n);
        client.resize(n);
        targetClient.resize(n);
        type.resize(n);
        openFlags.resize(n);
    }

    void
    clear()
    {
        resize(0);
    }

    void
    push_back(const Op &op)
    {
        time.push_back(op.time);
        offset.push_back(op.offset);
        length.push_back(op.length);
        file.push_back(op.file);
        pid.push_back(op.pid);
        client.push_back(op.client);
        targetClient.push_back(op.targetClient);
        type.push_back(op.type);
        openFlags.push_back(
            static_cast<std::uint8_t>(
                (op.openForWrite ? kOpenForWrite : 0) |
                (op.openForRead ? kOpenForRead : 0)));
    }

    /** Materialize row i. */
    Op
    operator[](std::size_t i) const
    {
        Op op;
        op.time = time[i];
        op.offset = offset[i];
        op.length = length[i];
        op.file = file[i];
        op.pid = pid[i];
        op.client = client[i];
        op.targetClient = targetClient[i];
        op.type = type[i];
        op.openForWrite = (openFlags[i] & kOpenForWrite) != 0;
        op.openForRead = (openFlags[i] & kOpenForRead) != 0;
        return op;
    }

    bool operator==(const OpColumns &other) const = default;

    /** Input iterator materializing rows on dereference. */
    class const_iterator
    {
      public:
        using value_type = Op;
        using difference_type = std::ptrdiff_t;

        const_iterator() = default;
        const_iterator(const OpColumns *columns, std::size_t i)
            : columns_(columns), i_(i)
        {
        }

        Op operator*() const { return (*columns_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++i_;
            return old;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return i_ == other.i_;
        }

      private:
        const OpColumns *columns_ = nullptr;
        std::size_t i_ = 0;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }
};

/** A full processed trace. */
struct OpStream
{
    std::uint16_t traceIndex = 0;
    std::uint32_t clientCount = 0;
    TimeUs duration = 0;
    OpColumns ops;
};

/** Name of an op type. */
std::string opTypeName(OpType type);

/** Aggregate byte counts of an op stream (for sanity checks). */
struct OpStreamTotals
{
    Bytes readBytes = 0;
    Bytes writeBytes = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t deletes = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t opens = 0;
};

/** Compute totals over a stream. */
OpStreamTotals totals(const OpStream &stream);

} // namespace nvfs::prep

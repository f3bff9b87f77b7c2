/**
 * @file
 * RAII read-only memory mapping of a whole file.
 *
 * trace/stream.cpp maps a whole trace file to read it.  open()
 * preserves errno on failure so callers can report *why* it failed.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace nvfs::util {

/** A read-only mmap of one file (empty files map to nullptr/0). */
class MappedFile
{
  public:
    /**
     * Map `path` read-only.  On failure returns nullopt with errno
     * describing the first failed syscall (open/fstat/mmap).
     */
    static std::optional<MappedFile>
    open(const std::string &path)
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return std::nullopt;
        struct stat st{};
        if (::fstat(fd, &st) != 0 || st.st_size < 0) {
            const int saved = errno;
            ::close(fd);
            errno = saved;
            return std::nullopt;
        }
        MappedFile file;
        file.size_ = static_cast<std::size_t>(st.st_size);
        if (file.size_ > 0) {
            void *map = ::mmap(nullptr, file.size_, PROT_READ,
                               MAP_PRIVATE, fd, 0);
            if (map == MAP_FAILED) {
                const int saved = errno;
                ::close(fd);
                errno = saved;
                return std::nullopt;
            }
            file.data_ = static_cast<const std::uint8_t *>(map);
        }
        ::close(fd);
        return file;
    }

    MappedFile(MappedFile &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {
    }

    MappedFile &
    operator=(MappedFile &&other) noexcept
    {
        if (this != &other) {
            unmap();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    ~MappedFile() { unmap(); }

    /** Start of the mapping (nullptr for an empty file). */
    const std::uint8_t *data() const { return data_; }

    /** Mapped size in bytes. */
    std::size_t size() const { return size_; }

  private:
    MappedFile() = default;

    void
    unmap()
    {
        if (data_ != nullptr)
            ::munmap(const_cast<std::uint8_t *>(data_), size_);
    }

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace nvfs::util

#include "util/file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace tacc::util {

namespace {

constexpr std::size_t kWriterBuf = 1 << 16;

std::array<std::uint32_t, 256> make_crc32c_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

#if defined(__x86_64__)

/// SSE4.2 `crc32` computes the same reflected Castagnoli CRC as the table,
/// eight bytes per instruction. Unaligned 8-byte loads are fine on x86.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* p, std::size_t size, std::uint32_t seed) noexcept {
  std::uint64_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; size > 0; ++p, --size) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xFFFFFFFFu;
}

#endif  // x86_64

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc32c_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) noexcept {
#if defined(__x86_64__)
  static const bool sse42 = __builtin_cpu_supports("sse4.2");
  if (sse42) {
    return crc32c_sse42(static_cast<const std::uint8_t*>(data), size, seed);
  }
#endif
  return crc32c_table(data, size, seed);
}

std::shared_ptr<const MmapFile> MmapFile::map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat", path);
  }
  auto file = std::shared_ptr<MmapFile>(new MmapFile());
  file->path_ = path;
  file->size_ = static_cast<std::size_t>(st.st_size);
  if (file->size_ > 0) {
    void* addr = ::mmap(nullptr, file->size_, PROT_READ, MAP_SHARED, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      throw_errno("mmap", path);
    }
    file->addr_ = addr;
  }
  ::close(fd);  // the mapping keeps the file alive
  return file;
}

MmapFile::~MmapFile() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
}

FileWriter::FileWriter(const std::string& path, bool truncate) {
  const int flags =
      O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("open", path);
  if (!truncate) {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      ::close(fd_);
      fd_ = -1;
      throw_errno("lseek", path);
    }
    offset_ = static_cast<std::size_t>(end);
  }
  buf_.reserve(kWriterBuf);
}

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);  // deliberately without flushing: see header
}

void FileWriter::append(std::span<const std::uint8_t> bytes) {
  append_raw(bytes.data(), bytes.size());
}

void FileWriter::append_raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  if (buf_.size() + size > kWriterBuf) flush();
  if (size > kWriterBuf) {
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::write(fd_, p + done, size - done);
      if (n < 0) throw std::runtime_error(std::string("write: ") +
                                          std::strerror(errno));
      done += static_cast<std::size_t>(n);
    }
  } else {
    buf_.insert(buf_.end(), p, p + size);
  }
  offset_ += size;
}

void FileWriter::flush() {
  std::size_t done = 0;
  while (done < buf_.size()) {
    const ssize_t n = ::write(fd_, buf_.data() + done, buf_.size() - done);
    if (n < 0) throw std::runtime_error(std::string("write: ") +
                                        std::strerror(errno));
    done += static_cast<std::size_t>(n);
  }
  buf_.clear();
}

void FileWriter::sync() {
  flush();
  if (::fdatasync(fd_) != 0) {
    throw std::runtime_error(std::string("fdatasync: ") +
                             std::strerror(errno));
  }
}

void FileWriter::close() {
  if (fd_ < 0) return;
  flush();
  ::close(fd_);
  fd_ = -1;
}

void atomic_replace(const std::string& tmp_path,
                    const std::string& final_path) {
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw_errno("rename", tmp_path);
  }
  fsync_dir(std::filesystem::path(final_path).parent_path().string());
}

void fsync_dir(const std::string& dir) {
  const std::string d = dir.empty() ? "." : dir;
  const int fd = ::open(d.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("open dir", d);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw_errno("fsync dir", d);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat", path);
  }
  std::vector<std::uint8_t> out(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
    if (n < 0) {
      ::close(fd);
      throw_errno("read", path);
    }
    if (n == 0) break;  // concurrent truncation: return what we got
    done += static_cast<std::size_t>(n);
  }
  out.resize(done);
  ::close(fd);
  return out;
}

}  // namespace tacc::util

// Low-level durable-file helpers for the TSDB persistence layer: CRC32C
// checksums, read-only memory mappings, a buffered append writer with
// explicit sync points, and atomic tmp+rename replacement.
//
// Everything here is deliberately policy-free: callers (tsdb::BlockFile,
// tsdb::Wal, the Store manifest) decide what to checksum, when to sync,
// and what a torn file means. The only invariant these helpers provide is
// the POSIX one the recovery design leans on: a rename() over an existing
// name is atomic, so a reader never observes a half-replaced manifest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace tacc::util {

/// CRC32C (Castagnoli, reflected 0x82F63B78) over `size` bytes. `seed`
/// chains partial computations: crc32c(b, crc32c(a)) == crc32c(a+b).
/// This is the checksum every on-disk frame in the TSDB format carries.
/// Uses the SSE4.2 `crc32` instruction when the CPU has it, else
/// crc32c_table(); both give the same value.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0) noexcept;
/// The portable bytewise-table kernel behind crc32c().
std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t seed = 0) noexcept;
inline std::uint32_t crc32c(std::span<const std::uint8_t> bytes,
                            std::uint32_t seed = 0) noexcept {
  return crc32c(bytes.data(), bytes.size(), seed);
}

/// A read-only, shared memory mapping of one file. Sealed blocks loaded
/// from a segment hold spans into the mapping plus a shared_ptr to it, so
/// the mapping lives exactly as long as any block (or query snapshot)
/// still references it — including after the file is unlinked by
/// compaction, which POSIX allows for mapped files.
class MmapFile {
 public:
  /// Maps `path` read-only. Throws std::runtime_error on open/map failure.
  /// An empty file maps to an empty span (no mapping is created).
  static std::shared_ptr<const MmapFile> map(const std::string& path);

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  std::span<const std::uint8_t> bytes() const noexcept {
    return {static_cast<const std::uint8_t*>(addr_), size_};
  }
  std::size_t size() const noexcept { return size_; }
  const std::string& path() const noexcept { return path_; }

 private:
  MmapFile() = default;

  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

/// Buffered append-only file writer with explicit sync points. Not
/// thread-safe; the owning structure (a WAL writer, a segment write) holds
/// its own lock. The destructor closes without flushing the user-space
/// buffer only if close() was never called — callers that care about the
/// tail must call flush()/sync()/close() explicitly, which is exactly the
/// property the torn-write fault injection exercises.
class FileWriter {
 public:
  /// Opens `path` for appending; `truncate` starts the file empty.
  /// Throws std::runtime_error on failure.
  explicit FileWriter(const std::string& path, bool truncate = true);
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter();

  void append(std::span<const std::uint8_t> bytes);
  void append_raw(const void* data, std::size_t size);

  /// Bytes appended so far (buffered + written).
  std::size_t offset() const noexcept { return offset_; }

  /// Pushes the user-space buffer to the kernel. Throws on write failure.
  void flush();
  /// flush() + fdatasync(): bytes are durable on return. Throws on failure.
  void sync();
  /// flush() + close(). Idempotent.
  void close();

 private:
  int fd_ = -1;
  std::size_t offset_ = 0;
  std::vector<std::uint8_t> buf_;
};

/// Renames `tmp_path` over `final_path` (atomic under POSIX) and fsyncs
/// the containing directory so the new directory entry is durable.
/// Throws std::runtime_error on failure.
void atomic_replace(const std::string& tmp_path, const std::string& final_path);

/// fsync() on a directory, making recent renames/unlinks in it durable.
void fsync_dir(const std::string& dir);

/// Reads a whole file into memory. Throws std::runtime_error on failure.
std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace tacc::util

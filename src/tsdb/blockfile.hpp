// The TSDB's checksummed, versioned on-disk segment format plus the
// manifest that names which segments are live. See docs/ARCHITECTURE.md,
// "On-disk format & recovery", for the layout diagram and the recovery
// algorithm that consumes these files.
//
// A *segment* (`seg-<seq>.blk`) is an immutable batch of sealed blocks
// for many series, written once by Store::flush()/compact() and then only
// ever memory-mapped. Every structural unit (header, per-series record,
// per-block record) carries its own CRC32C, so a damaged file reports the
// offset of the broken unit, and a footer acts as the commit marker — a
// torn write is detected as "no footer", not as garbage data. Files not
// named by the manifest are dead (a crash between segment write and
// manifest commit leaves one behind); recovery deletes them.
//
// The *manifest* (`MANIFEST`) is the atom of durability: a tiny
// checksummed file naming the live segment sequence numbers, replaced via
// write-tmp + rename + dir-fsync. Recovery trusts only the manifest; the
// crash-safety argument of flush/compact reduces to "the manifest rename
// is atomic".
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tsdb/block.hpp"
#include "tsdb/coding.hpp"
#include "util/fault.hpp"
#include "util/file.hpp"

namespace tacc::tsdb {

// TACC_FORMAT_BEGIN(segment, 1)
// Segment file layout (all integers little-endian; varint = LEB128):
//
//   header   magic "TSG1" | u32 version | u64 file_seq | u32 crc(header)
//   body     n_series x series record, sorted by (metric, canonical tags):
//     series   'S' | varint metric_len, metric | varint n_tags,
//              n_tags x (varint key_len, key, varint val_len, val) |
//              varint cum_sealed | varint n_blocks | u32 crc(record)
//     block    'B' | zigzag varint t_min | varint (t_max - t_min) |
//              varint count | f64 sum | f64 min | f64 max |
//              varint times_len | varint values_len | varint n_tiers,
//              n_tiers x (varint interval_us, varint tier_len) |
//              times bytes | values bytes | tier streams | u32 crc(block)
//   footer   'F' | u64 n_series | u32 crc(footer) | magic "TSGE"
//
// `cum_sealed` is the series' cumulative count of points ever persisted
// to segments (monotonic across compaction and retention); WAL replay
// uses it to skip points already covered by segments. A block with
// times_len == values_len == 0 but count > 0 is a retention ghost.
// Any layout change here requires bumping kSegmentFormatVersion and
// updating tools/lint/format_fingerprint.txt (lint TS050).
inline constexpr std::uint32_t kSegmentMagic = 0x31475354u;   // "TSG1"
inline constexpr std::uint32_t kSegmentFooterMagic = 0x45475354u;  // "TSGE"
inline constexpr std::uint32_t kSegmentFormatVersion = 1;
inline constexpr std::uint8_t kSegmentSeriesTag = 'S';
inline constexpr std::uint8_t kSegmentBlockTag = 'B';
inline constexpr std::uint8_t kSegmentFooterTag = 'F';
// TACC_FORMAT_END(segment)

// TACC_FORMAT_BEGIN(manifest, 1)
// Manifest layout: magic "TSMF" | u32 version | u64 next_seq |
// u32 n_segments | n_segments x u64 seq | u32 crc(everything before).
// Replaced atomically (tmp + rename + dir fsync); never appended.
inline constexpr std::uint32_t kManifestMagic = 0x464D5354u;  // "TSMF"
inline constexpr std::uint32_t kManifestFormatVersion = 1;
// TACC_FORMAT_END(manifest)

/// Thrown by the segment/WAL/manifest readers when a checksum, magic
/// number, or structural bound fails. `offset()` is the byte offset of
/// the damaged unit inside the file — the corruption property tests
/// assert it is always populated and within the file.
class CorruptionError : public std::runtime_error {
 public:
  CorruptionError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (offset " + std::to_string(offset) + ")"),
        offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Thrown by a write path when the fault plan injects a crash
/// (util::kFaultWalAppend / kFaultWalSync / kFaultBlockFileWrite /
/// kFaultCompactCommit): a deterministic torn prefix of the pending bytes
/// is on disk and the store must be treated as dead, exactly like a
/// killed process. Recovery is Store::open() on the same directory.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& site)
      : std::runtime_error("injected crash at " + site) {}
};

/// Bounds-checked reader over untrusted bytes, shared by the segment,
/// manifest and WAL readers. Every failure is a CorruptionError carrying
/// the offset of the unit being parsed.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> data, std::size_t pos)
      : data_(data), pos_(pos) {}

  std::size_t pos() const noexcept { return pos_; }
  std::size_t left() const noexcept { return data_.size() - pos_; }

  std::uint8_t u8(std::size_t unit) {
    need(1, unit);
    return data_[pos_++];
  }

  std::uint32_t u32(std::size_t unit) {
    need(4, unit);
    const std::uint32_t v = coding::get_u32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64(std::size_t unit) {
    need(8, unit);
    const std::uint64_t v = coding::get_u64(data_.data() + pos_);
    pos_ += 8;
    return v;
  }

  std::uint64_t varint(std::size_t unit) {
    std::uint64_t v = 0;
    if (!coding::get_varint_checked(data_.data(), data_.size(), pos_, v)) {
      throw CorruptionError("truncated varint", unit);
    }
    return v;
  }

  std::span<const std::uint8_t> bytes(std::size_t n, std::size_t unit) {
    need(n, unit);
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  /// A put_string() field, viewed in place.
  std::string_view view(std::size_t unit) {
    const auto s = bytes(varint(unit), unit);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// A put_series_key() field.
  void series_key(std::size_t unit, std::string& metric, TagSet& tags) {
    metric = view(unit);
    const std::uint64_t n_tags = varint(unit);
    for (std::uint64_t i = 0; i < n_tags; ++i) {
      const std::string_view k = view(unit);
      tags.emplace(k, view(unit));
    }
  }

  void check_crc(std::size_t unit_start, const char* what) {
    const std::uint32_t want =
        util::crc32c(data_.data() + unit_start, pos_ - unit_start);
    const std::uint32_t got = u32(unit_start);
    if (want != got) {
      throw CorruptionError(std::string(what) + " checksum mismatch",
                            unit_start);
    }
  }

 private:
  void need(std::size_t n, std::size_t unit) {
    if (left() < n) throw CorruptionError("truncated record", unit);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Appends a series' on-disk identity, the form segment series records
/// and WAL definitions share: metric, n_tags, then each key and value,
/// all put_string()/varint coded. `tags` are (key, value) pairs sorted by
/// key.
template <typename Tags>
void put_series_key(std::vector<std::uint8_t>& out, std::string_view metric,
                    const Tags& tags) {
  coding::put_string(out, metric);
  coding::put_varint(out, tags.size());
  for (const auto& [k, v] : tags) {
    coding::put_string(out, k);
    coding::put_string(out, v);
  }
}

/// A series' tags as (key, value) views, sorted by key: the form the store
/// interns and the segment and WAL writers encode.
using TagViews = std::span<const std::pair<std::string_view, std::string_view>>;

/// One series' record in a segment, as views: write_segment reads the
/// store's own keys through it, and load_segment visits one per record.
struct SegmentSeries {
  std::string_view metric;
  TagViews tags;
  /// Cumulative points ever persisted for this series (see format note).
  std::uint64_t cum_sealed = 0;
  std::span<const std::shared_ptr<const SealedBlock>> blocks;
};

/// Writes a complete segment file at `path` (final name; the file is
/// inert until a manifest names it), one record at a time. `series` must
/// be sorted by (metric, canonical tags). When `faults` injects an error
/// at util::kFaultBlockFileWrite (key `fault_key`, salt `file_seq`), the
/// file is cut to a deterministic prefix and InjectedCrash thrown.
void write_segment(const std::string& path, std::uint64_t file_seq,
                   std::span<const SegmentSeries> series,
                   const util::FaultPlan* faults, std::string_view fault_key);

/// Maps and validates a segment (every CRC, every structural bound),
/// calling `visit` per series in file order once its records pass. The
/// key views last for the call; the blocks pin the mapping. Returns the
/// file's sequence number. Throws CorruptionError on any damage, after
/// visiting exactly the series ahead of it.
std::uint64_t load_segment(
    const std::string& path,
    const std::function<void(const SegmentSeries&)>& visit);

struct Manifest {
  std::uint64_t next_seq = 1;
  std::vector<std::uint64_t> segments;  // live segment seqs, oldest first
};

/// Reads `<dir>/MANIFEST`. A missing file returns an empty default (a
/// fresh store); a damaged file throws CorruptionError.
Manifest read_manifest(const std::string& dir);

/// Atomically replaces `<dir>/MANIFEST` (tmp + rename + dir fsync).
/// `fault_site` is consulted with key "manifest" and salt `salt`
/// (util::kFaultBlockFileWrite from flush, kFaultCompactCommit from
/// compaction); an injected error leaves a torn tmp file — the live
/// manifest is untouched — and throws InjectedCrash.
void write_manifest(const std::string& dir, const Manifest& manifest,
                    const util::FaultPlan* faults, std::string_view fault_site,
                    std::uint64_t salt);

/// `<dir>/seg-<seq>.blk`, zero-padded for lexicographic == numeric order.
std::string segment_path(const std::string& dir, std::uint64_t seq);

}  // namespace tacc::tsdb

// Crash-safe write-ahead log for the TSDB's head buffers.
//
// Each shard owns one WAL file per generation (`wal-<shard>-<gen>.log`).
// Every put takes the shard lock, appends that shard's runs of the put to
// the shard's live WAL as *one* CRC-framed frame (one checksum, one
// write()), *then* applies the points to memory — so per-series record
// order equals in-memory apply order, and a frame that never finished (a
// torn tail) corresponds to a put that never returned. Recovery replays
// frames until the first bad one and stops: the torn tail is exactly the
// unacknowledged suffix, which is what makes post-crash query results
// byte-identical to an uncrashed store holding the acknowledged puts.
//
// Within a generation each series is *defined* once — its metric and tags
// under a dense id — and every run names it by id. A generation starts
// with a *checkpoint*: per series its definition (carrying its cumulative
// persisted-point counter) and a run of the points no segment holds,
// packed into frames of about 64 KiB and closed by a checkpoint-end
// marker. A series created after the checkpoint is defined inline, in the
// frame that carries its first run. Rotation (during flush/open) writes
// the new generation, syncs it, then deletes the old ones; recovery picks
// the newest generation whose checkpoint is complete, so a crash
// mid-rotation falls back to the previous generation, which still holds
// the full history since *its* checkpoint. Points that a completed flush
// moved into segments are skipped at replay via the cumulative counters
// (see Store::recover).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/block.hpp"
#include "tsdb/blockfile.hpp"
#include "util/fault.hpp"
#include "util/file.hpp"

namespace tacc::tsdb {

// TACC_FORMAT_BEGIN(wal, 2)
// WAL file layout (all integers little-endian; varint = LEB128):
//
//   header   magic "TSWL" | u32 version | u32 shard | u64 gen |
//            u32 crc(header)
//   frames   u32 payload_len | u32 crc(payload) | payload
//   payload  one or more entries, each led by a u8 type:
//     'S' series definition: varint metric_len, metric | varint n_tags,
//         n_tags x (varint key_len, key, varint val_len, val) |
//         varint cum_sealed (0 when defined after the checkpoint)
//     'R' run: varint id | varint n_points | points
//     'E' checkpoint end (type byte only; last entry of its frame)
//   points   first: zigzag varint time; then zigzag varint delta to the
//            previous time; each followed by f64 value bits (8 bytes LE)
//
// The 'S' entries of a file define ids 0, 1, 2, ... in file order; a
// frame naming an id not yet defined is torn.
// Any layout change here requires bumping kWalFormatVersion and updating
// tools/lint/format_fingerprint.txt (lint TS050).
inline constexpr std::uint32_t kWalMagic = 0x4C575354u;  // "TSWL"
inline constexpr std::uint32_t kWalFormatVersion = 2;
inline constexpr std::uint8_t kWalSeriesTag = 'S';
inline constexpr std::uint8_t kWalRunTag = 'R';
inline constexpr std::uint8_t kWalCheckpointEndTag = 'E';
// TACC_FORMAT_END(wal)

/// Thrown by replay_wal for a WAL written in another format version.
/// Recovery refuses such a file — it is neither replayed nor deleted —
/// where a merely damaged header falls back like a torn one.
class WalVersionError : public CorruptionError {
 public:
  using CorruptionError::CorruptionError;
};

/// When WAL appends reach the kernel vs. stable storage. The in-process
/// crash model (an exception unwinding the store) cannot distinguish
/// these — every completed write() survives — but the modes drive real
/// fdatasync() calls and the wal.sync fault site, and govern durability
/// against whole-machine crashes.
enum class WalSync {
  Never,    // never fsync; durability is best-effort (OS page cache)
  OnFlush,  // fsync at flush/rotation boundaries (the default)
  Always,   // fsync after every frame, before the put returns
};

/// One series defined in a WAL file; its id is its index in
/// WalReplay::series.
struct WalSeries {
  std::string metric;
  TagSet tags;
  /// The cumulative persisted-point count at the checkpoint; 0 when the
  /// series was defined after it.
  std::uint64_t cum_sealed = 0;
};

/// One series' points from one checkpoint entry or one put.
struct WalRun {
  std::uint32_t series = 0;  // id: index into WalReplay::series
  std::vector<DataPoint> points;
};

/// The readable content of one WAL file: every series its intact frames
/// define, and their non-empty runs in file order (checkpoint points
/// first, then puts). The checkpoint-end marker is folded into
/// `checkpoint_complete`.
struct WalReplay {
  std::uint32_t shard = 0;
  std::uint64_t gen = 0;
  bool checkpoint_complete = false;
  std::vector<WalSeries> series;
  std::vector<WalRun> runs;
  /// Offset of the first unreadable frame (torn tail, damage, or an
  /// undefined id); everything before it replayed cleanly. Unset for a
  /// clean file.
  std::optional<std::size_t> torn_offset;
};

/// Reads and validates one WAL file. A damaged or truncated *frame* stops
/// replay and sets `torn_offset` (the normal post-crash case); a frame is
/// returned whole or not at all. A damaged header throws CorruptionError,
/// a header of another format version WalVersionError.
WalReplay replay_wal(const std::string& path);

/// Append handle for one shard's live WAL generation. Entries are staged
/// into one pending frame and reach the file at commit(). Not thread-safe:
/// the owning shard's mutex serializes all calls (which is what makes WAL
/// record order match memory apply order).
class WalWriter {
 public:
  /// Creates (truncates) `path` and writes the header. `faults` drives
  /// the wal.append / wal.sync crash sites with key "shard-<shard>".
  WalWriter(const std::string& path, std::uint32_t shard, std::uint64_t gen,
            WalSync sync_mode, std::shared_ptr<const util::FaultPlan> faults);

  /// Stages a definition of (metric, tags); returns its id.
  std::uint32_t define(std::string_view metric, TagViews tags,
                       std::uint64_t cum_sealed = 0);
  /// Stages one run of points for a defined id.
  void run(std::uint32_t id, std::span<const DataPoint> points);
  /// Stages one series' checkpoint — its definition and, when it has
  /// any, a run of its unpersisted points — and commits the frame once it
  /// holds 64 KiB. Returns the series' id.
  std::uint32_t checkpoint(std::string_view metric, TagViews tags,
                           std::uint64_t cum_sealed,
                           std::span<const DataPoint> points);
  /// Stages the checkpoint-end marker and commits.
  void end_checkpoint();

  /// Writes the staged entries as one frame; fsyncs when the mode is
  /// Always. No-op when nothing is staged. On an injected crash a
  /// deterministic torn prefix of the frame reaches the file, the writer
  /// is poisoned (all later calls rethrow), and InjectedCrash propagates —
  /// the caller must not apply the points.
  void commit();

  /// Explicit fsync point (flush/rotation); honors the wal.sync site.
  /// No-op when the mode is Never.
  void sync();

  std::uint64_t gen() const noexcept { return gen_; }
  const std::string& path() const noexcept { return path_; }

 private:
  void check_poisoned() const;

  std::string path_;
  std::string fault_key_;
  std::uint64_t gen_ = 0;
  WalSync sync_mode_ = WalSync::OnFlush;
  std::shared_ptr<const util::FaultPlan> faults_;
  util::FileWriter file_;
  /// The pending frame: 8 placeholder bytes for (len, crc), then entries.
  std::vector<std::uint8_t> frame_;
  std::uint32_t defined_ = 0;  // ids handed out so far
  std::uint64_t ops_ = 0;
  bool poisoned_ = false;
};

/// `<dir>/wal-<shard>-<gen>.log`, zero-padded for lexicographic order.
std::string wal_path(const std::string& dir, std::uint32_t shard,
                     std::uint64_t gen);

}  // namespace tacc::tsdb

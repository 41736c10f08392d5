// Immutable compressed blocks for the time-series store's sealed tier.
//
// A series lives as a small mutable head buffer plus a run of SealedBlocks,
// each holding a fixed-size chunk of the series' append sequence in
// compressed form (see docs/ARCHITECTURE.md, "TSDB storage format"):
//
//   * Timestamps: Gorilla-style bit-packed delta-of-delta. The first
//     timestamp is 64 raw bits; every later point encodes
//     zigzag(delta - prev_delta) in a prefix-coded class ('0' for zero,
//     then 7/12/20/32/64-bit classes). At a regular cadence the second
//     difference is zero, so each timestamp after the second costs one
//     *bit* (the varint codec this replaced cost one byte).
//   * Values: Gorilla-style XOR of consecutive IEEE-754 bit patterns with
//     leading/meaningful-bit windows, bit-packed. Near-constant counters
//     cost ~1 bit per point; slowly-moving integral counters a few bytes.
//
// Every block carries a summary (t_min, t_max, count, sum, min, max) so
// queries can skip blocks entirely outside their time range and answer
// downsample buckets that cover a whole block straight from the summary
// without decoding (the rollup fast path). The summary aggregates are
// computed with the exact same folds as tsdb::aggregate(), so a
// summary-answered bucket is bit-identical to the decoded answer.
//
// Durable stores additionally attach downsample *tiers* at seal time
// (5 min and 1 h, constants in store.cpp): per tier a compact
// byte stream of (bucket, count, min, max) entries partitioning the
// block's time-sorted points into consecutive interval-aligned runs, each
// folded with aggregate()'s Min/Max folds. A foldable downsample query
// whose bucket is a multiple of a tier interval answers whole blocks from
// tier entries without touching raw points — by associativity of the
// leftmost-tie min/max folds this is bit-identical to decoding (blocks
// whose tier entries went NaN are excluded and decode instead).
//
// Blocks are immutable after seal(): they can be shared across query
// snapshots by shared_ptr with no further locking. Blocks loaded from a
// segment file reference the file's memory mapping (from_parts) and pin
// it via `backing`; a retention "ghost" block has summary + tiers but no
// raw streams (has_raw() == false) and decodes to nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace tacc::tsdb {

/// Sorted key=value tag pairs identifying one series (plus the metric
/// name kept separately). Defined here, at the bottom of the tsdb include
/// graph, so the WAL and segment formats can name it without pulling in
/// the store.
using TagSet = std::map<std::string, std::string>;

/// The key of a tag set: "k=v," per tag in key order, with every
/// backslash, ',' and '=' inside a key or value escaped by a backslash, so
/// two different tag sets never share a key. A tag set free of those three
/// characters keeps the plain "k=v," bytes, on which shard assignment and
/// segment series order are built. The store keys series by it and the
/// portal keys its Timeseries filters by it.
std::string canonical_tags(const TagSet& tags);

struct DataPoint {
  util::SimTime time = 0;
  double value = 0.0;
};

/// Per-block rollup summary. `sum`, `min`, `max` are computed over the
/// block's values in stored (time-sorted) order with the same folds
/// tsdb::aggregate() uses, so rollup answers match decoded answers bit for
/// bit.
struct BlockSummary {
  util::SimTime t_min = 0;
  util::SimTime t_max = 0;
  std::uint32_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// One decoded downsample-tier entry: the Min/Max/Count rollup of the
/// block's points inside one interval-aligned bucket.
struct TierEntry {
  util::SimTime bucket = 0;  // bucket start: t - t % interval
  std::uint32_t count = 0;
  double min = 0.0;
  double max = 0.0;
};

/// One encoded downsample tier of a block. `data` is the tier's byte
/// stream (varint header + delta/XOR-coded entries); it views either the
/// block's own buffers or a segment file mapping.
struct TierLevel {
  util::SimTime interval = 0;
  std::uint32_t entries = 0;
  /// Any entry's min/max is NaN: the tier fast path must not fold these
  /// (a decode fold skips mid-bucket NaNs a tier entry would absorb), so
  /// queries fall back to decoding the block.
  bool has_nan = false;
  std::span<const std::uint8_t> data;
};

class SealedBlock {
 public:
  /// Compresses `points` (which must be sorted by time; ties keep their
  /// order) into an immutable block. Requires a non-empty span. Each
  /// interval in `tier_intervals` (positive, ascending) adds an encoded
  /// downsample tier.
  static std::shared_ptr<const SealedBlock> seal(
      std::span<const DataPoint> points,
      std::span<const util::SimTime> tier_intervals = {});

  /// Rebuilds a block around externally-owned streams (a segment file
  /// mapping). `tiers` entries need `interval` and `data` set; the entry
  /// count and NaN flag are parsed from each stream. `backing` is held
  /// for the block's lifetime. Empty `times`/`values` with a non-zero
  /// summary count produce a retention ghost (has_raw() == false).
  static std::shared_ptr<const SealedBlock> from_parts(
      const BlockSummary& summary, std::span<const std::uint8_t> times,
      std::span<const std::uint8_t> values, std::vector<TierLevel> tiers,
      std::shared_ptr<const void> backing);

  const BlockSummary& summary() const noexcept { return summary_; }
  std::uint32_t count() const noexcept { return summary_.count; }
  util::SimTime t_min() const noexcept { return summary_.t_min; }
  util::SimTime t_max() const noexcept { return summary_.t_max; }

  /// False for retention ghosts: summary and tiers survive but the raw
  /// streams were dropped, so cursors and decode_append yield nothing.
  bool has_raw() const noexcept { return !times_.empty(); }

  std::span<const std::uint8_t> times_bytes() const noexcept { return times_; }
  std::span<const std::uint8_t> values_bytes() const noexcept {
    return values_;
  }
  /// Attached downsample tiers, finest first (seal interval order).
  std::span<const TierLevel> tiers() const noexcept { return tiers_; }

  /// Compressed payload size (timestamp stream + value stream), the number
  /// the bytes/point benchmarks report. Tier streams are accounted
  /// separately (tier_bytes): they are an acceleration structure, not the
  /// primary copy of the data.
  std::size_t payload_bytes() const noexcept {
    return times_.size() + values_.size();
  }
  std::size_t tier_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& t : tiers_) n += t.data.size();
    return n;
  }

  /// Streaming decoder: yields the block's points in stored order without
  /// materializing them. Cheap to construct; hold one per block being read.
  class Cursor {
   public:
    explicit Cursor(const SealedBlock& block) noexcept : block_(&block) {}
    /// Decodes the next point into `out`; returns false once exhausted.
    bool next(DataPoint& out) noexcept;

   private:
    const SealedBlock* block_;
    std::uint32_t index_ = 0;
    std::size_t time_bit_ = 0;   // bit offset into times_
    std::size_t value_bit_ = 0;  // bit offset into values_
    util::SimTime prev_time_ = 0;
    util::SimTime prev_delta_ = 0;
    std::uint64_t prev_bits_ = 0;
    int window_leading_ = 0;
    int window_bits_ = 0;
    bool have_window_ = false;
  };
  Cursor cursor() const noexcept { return Cursor(*this); }

  /// Streaming decoder over one tier's entries, in bucket order.
  class TierCursor {
   public:
    explicit TierCursor(const TierLevel& level) noexcept;
    bool next(TierEntry& out) noexcept;

   private:
    const TierLevel* level_;
    std::uint32_t index_ = 0;
    std::size_t pos_ = 0;  // byte offset into level_->data
    util::SimTime prev_bucket_ = 0;
    std::uint64_t prev_min_bits_ = 0;
    std::uint64_t prev_max_bits_ = 0;
  };

  /// Decodes the whole block, appending to `out`. Ghosts append nothing.
  void decode_append(std::vector<DataPoint>& out) const;

 private:
  SealedBlock() = default;

  BlockSummary summary_;
  // Stream views: into own_* for seal()ed blocks, into `backing_` for
  // blocks loaded from a segment mapping.
  std::span<const std::uint8_t> times_;
  std::span<const std::uint8_t> values_;
  std::vector<TierLevel> tiers_;
  std::vector<std::uint8_t> own_times_;
  std::vector<std::uint8_t> own_values_;
  std::vector<std::vector<std::uint8_t>> own_tiers_;
  std::shared_ptr<const void> backing_;
};

}  // namespace tacc::tsdb

// Tag-indexed time-series store, modeled on the OpenTSDB layout the paper
// adopts for time-series analysis (section VI-A): every series is labeled
// by a tuple of tags — in the paper's setup host name, device type, device
// name, and event name — and can be aggregated along any subset of the
// tags, then joined with job metadata from the relational store.
//
// The store is sharded for concurrent ingest: series are distributed over
// N buckets by a stable hash of (metric, canonical tag string), and each
// shard is protected by its own mutex (lock striping), so writers touching
// different shards never contend. A writer resolves each series once with
// series(), which returns a copyable Handle, and then puts runs of points
// by handle: put() groups a put's runs by shard and takes each shard's
// lock, and writes each shard's WAL frame, once. Tag strings are interned
// per shard so each distinct key/value is stored once no matter how many
// series share it.
//
// Storage is two-tier (see docs/ARCHITECTURE.md, "TSDB storage format"):
// each series keeps a small mutable head buffer of recent points, and once
// the head reaches StoreOptions::block_points the oldest chunk is sealed
// into an immutable Gorilla-compressed SealedBlock (~1-4 bytes/point on
// counter data vs 16 bytes raw) carrying a (t_min, t_max, count, sum, min,
// max) summary. Queries snapshot the block pointers plus the bounded head
// under the shard lock, then make one walk outside it over each series'
// sources, blocks in seal order and then the head: blocks wholly outside
// the time range are skipped by summary, and a block lying wholly inside
// one downsample bucket is answered from its summary without decoding (the
// rollup fast path). For Min/Max/Count the summary joins the bucket's
// running fold — exactly, by associativity — so summaries mix freely with
// neighbouring blocks and head points in the same bucket; for Sum/Avg,
// whose float folds are order-dependent, the summary is used only when it
// covers the bucket exclusively. Everything else goes through a streaming
// decode cursor. rate() is a stage of the walk (each point becomes its
// per-second delta from the one before, carried across blocks), so a rate
// walk decodes every block that does not start past the range and takes no
// summary or tier fast path. A series whose sources overlap in time is
// first merged into its head copy (decoded and stable-sorted with it), and
// the same walk serves it.
//
// Thread-safety contract:
//   * series(), put() (every overload), put_batch(), seal_all(), query(),
//     num_series(), num_points() and storage_stats() are all safe to call
//     concurrently from any number of threads, including queries
//     interleaved with ingest and sealing. A Handle may be shared and used
//     from any thread.
//   * A query observes each series atomically (its head is snapshotted and
//     its immutable blocks ref'd under the shard lock) but is not a
//     cross-shard snapshot: points ingested while the query runs may or
//     may not be visible.
//   * Construction, move, and destruction are NOT thread-safe; complete
//     them before sharing the store across threads.
//   * Query results are deterministic: for a fixed set of stored points
//     they are byte-identical regardless of shard count, block size
//     (including "never sealed"), seal timing, ingest order across series,
//     ingest thread count, or query thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/block.hpp"
#include "tsdb/wal.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::util {
class ThreadPool;
}  // namespace tacc::util

namespace tacc::tsdb {

// TagSet (the sorted key=value tag map identifying one series) lives in
// block.hpp so the on-disk format headers can use it too.

enum class Aggregator { Sum, Avg, Min, Max, Count };

struct Query {
  std::string metric;
  /// Convert each matched series from cumulative counts to per-second
  /// rates (successive-point deltas / dt) before range filtering and
  /// downsampling — OpenTSDB's rate() for the monotonic counters this
  /// system stores. A point with no later time than the one before it
  /// yields no rate. Negative deltas clamp to 0, so a counter reset or wrap
  /// reads as a zero-rate interval.
  /// This is the one counter-delta rule left beside pipeline::HostExtract's,
  /// which Table I and the online analyzer share: a series does not carry
  /// its counter's width, so the store cannot correct a wrap.
  bool rate = false;
  /// Exact-match tag filters; series missing a filtered tag don't match.
  TagSet filters;
  /// Tags whose distinct values produce separate result groups; all other
  /// tags are aggregated away (OpenTSDB group-by semantics).
  std::vector<std::string> group_by;
  Aggregator aggregator = Aggregator::Sum;
  /// Downsample bucket; 0 = no downsampling (points aligned exactly).
  util::SimTime downsample = 0;
  Aggregator downsample_aggregator = Aggregator::Avg;
  /// Inclusive-exclusive time range; both 0 = unbounded.
  util::SimTime start = 0;
  util::SimTime end = 0;
};

struct SeriesResult {
  TagSet group_tags;  // values of the group_by tags for this group
  std::vector<DataPoint> points;  // sorted by time
};

/// How long one metric family's persisted data survives compaction.
/// Horizons are measured backwards from the newest timestamp stored
/// anywhere in the store (data time, never wall time — the store has no
/// clock), and a block expires only when *all* of it is past the horizon.
struct RetentionPolicy {
  /// Raw compressed streams older than this are dropped at compaction,
  /// leaving a "ghost" block (summary + downsample tiers only) that keeps
  /// serving rollup and tier queries. 0 = keep raw forever.
  util::SimTime raw = 0;
  /// Ghosts older than this are dropped entirely. 0 = keep forever.
  util::SimTime tiers = 0;
};

/// Tuning knobs for the store. Defaults are sized for tens of concurrent
/// writers on a few hundred thousand series.
struct StoreOptions {
  /// Number of lock-striped shards; rounded up to a power of two, min 1.
  /// More shards = less writer contention, slightly more query fan-out.
  std::size_t shards = 16;
  /// Points accumulated in a series' mutable head before the oldest chunk
  /// is sealed into an immutable compressed block. 0 disables automatic
  /// sealing (points stay raw until seal_all()). Bigger blocks compress
  /// better and give coarser rollups; smaller blocks give finer block
  /// skipping.
  std::size_t block_points = 1024;
  /// Directory for durable state (segments, WALs, MANIFEST); created if
  /// missing. Empty = in-memory store: no files, no WAL, no tiers, and
  /// flush()/compact()/close() are no-ops.
  std::string data_dir{};
  /// When WAL appends are fsync'd (durable stores only). See tsdb::WalSync.
  WalSync wal_sync = WalSync::OnFlush;
  /// Retention by metric family: longest matching key that is a prefix of
  /// the metric name wins; unmatched metrics are kept forever. Applied at
  /// compaction time only.
  std::map<std::string, RetentionPolicy> retention{};
  /// Fault plan driving the persistence crash sites (util::kFaultWalAppend,
  /// kFaultWalSync, kFaultBlockFileWrite, kFaultCompactCommit). An injected
  /// error leaves a deterministic torn prefix on disk and throws
  /// InjectedCrash; the store must then be abandoned and reopened.
  std::shared_ptr<const util::FaultPlan> faults{};
};

/// Storage accounting across both tiers, for the bytes/point benchmarks.
struct StorageStats {
  std::size_t head_points = 0;
  std::size_t sealed_points = 0;
  std::size_t sealed_blocks = 0;
  /// Compressed payload bytes across all sealed blocks.
  std::size_t sealed_bytes = 0;
};

/// On-disk accounting for a durable store, for the bytes/point gate.
struct DiskStats {
  std::size_t segment_files = 0;
  /// Total bytes of the live segment files (headers, CRCs, tiers, all).
  std::size_t segment_bytes = 0;
  /// Downsample-tier stream bytes inside those segments — an acceleration
  /// structure, accounted separately from the primary copy.
  std::size_t tier_bytes = 0;
  /// Bytes of the live WAL generations (points not yet in a segment).
  std::size_t wal_bytes = 0;
  /// Points stored in segments (ghost summaries included).
  std::size_t persisted_points = 0;
  /// The primary on-disk copy of the data: everything except tier streams.
  std::size_t primary_bytes() const noexcept {
    return segment_bytes - tier_bytes + wal_bytes;
  }
};

/// What Store::open() found and did; for recovery tests and logs.
struct RecoveryInfo {
  std::size_t segments_loaded = 0;
  std::size_t wal_generations_replayed = 0;
  /// Non-empty WAL runs read: checkpoint entries, then puts.
  std::size_t wal_runs = 0;
  /// WAL points applied to heads vs. skipped as already segment-covered.
  std::size_t points_replayed = 0;
  std::size_t points_skipped = 0;
  /// WAL files that ended in a torn record (the normal post-crash case).
  std::size_t torn_tails = 0;
  /// Unreferenced files deleted: torn segments, stale WAL gens, tmp files.
  std::size_t stale_files_removed = 0;
};

class Store {
  struct Series;

 public:
  /// A resolved series (see series()): the shard that holds it and the
  /// series itself. Small and copyable, and valid for the life of the
  /// store that returned it, since nothing erases a series and map nodes
  /// do not move. A default-constructed handle names no series.
  class Handle {
   public:
    Handle() = default;
    explicit operator bool() const noexcept { return series_ != nullptr; }

   private:
    friend class Store;
    Handle(std::uint32_t shard, Series* series) noexcept
        : shard_(shard), series_(series) {}

    std::uint32_t shard_ = 0;
    Series* series_ = nullptr;
  };

  /// One series' points in a put. Points need not be sorted.
  struct Run {
    Handle series;
    std::span<const DataPoint> points;
  };

  Store() : Store(StoreOptions{}) {}
  /// In-memory store when options.data_dir is empty; otherwise opens (or
  /// creates) the durable store in that directory, running full recovery:
  /// load manifest-named segments, replay each shard's newest complete WAL
  /// generation (skipping segment-covered points), rotate WALs, and delete
  /// stale files. Query results after recovery are byte-identical to the
  /// pre-crash store restricted to acknowledged writes. Throws
  /// CorruptionError if the manifest or a manifest-named segment is
  /// damaged (torn *unreferenced* files are cleaned up, not errors).
  explicit Store(const StoreOptions& options);

  /// Opens `dir` with default options — the one-liner for recovery.
  static Store open(const std::string& dir) {
    StoreOptions o;
    o.data_dir = dir;
    return Store(o);
  }

  /// Destruction does NOT flush: it is deliberately crash-equivalent (the
  /// WAL already holds every acknowledged put). Call close() for a clean
  /// shutdown that persists sealed blocks and truncates the WALs.
  ~Store() = default;

  Store(Store&&) noexcept = default;
  Store& operator=(Store&&) noexcept = default;

  /// Resolves the series (metric, tags), creating it if it is new, and
  /// returns its handle. Canonicalizes the tags and hashes them: call it
  /// once per series, not once per put. A series exists from this call on
  /// — it counts in num_series(), shows as an empty group in a group-by
  /// and is checkpointed — so resolve a series only when a point for it
  /// is about to be put. Throws std::logic_error after close().
  /// Thread-safe.
  Handle series(const std::string& metric, const TagSet& tags);

  /// The put path. Appends every run's points to its series, grouping the
  /// runs by shard: each shard's lock is taken once and, in a durable
  /// store, each shard's part of the put becomes one WAL frame, written
  /// before its points are applied. Runs of one series apply in call
  /// order; out-of-order points are allowed (sorted lazily at seal/query
  /// time). Handles must come from this store. Thread-safe.
  void put(std::span<const Run> runs);
  void put(Handle series, std::span<const DataPoint> points) {
    const Run run{series, points};
    put(std::span<const Run>(&run, 1));
  }

  /// One-call forms for tests and small writers: series() plus put().
  void put(const std::string& metric, const TagSet& tags, util::SimTime time,
           double value) {
    const DataPoint p{time, value};
    put_batch(metric, tags, std::span<const DataPoint>(&p, 1));
  }
  void put_batch(const std::string& metric, const TagSet& tags,
                 std::span<const DataPoint> points) {
    if (!points.empty()) put(series(metric, tags), points);
  }

  /// Seals every series' remaining head buffer into a final (possibly
  /// short) compressed block. Call after a bulk load to get full
  /// compression and rollup coverage; later appends simply start a new
  /// head. Thread-safe, including against concurrent ingest and queries.
  void seal_all();

  /// Number of distinct series across all metrics. Thread-safe.
  std::size_t num_series() const;
  /// Total stored points. Thread-safe (per-shard atomic counters summed on
  /// read), including while ingest is in flight.
  std::size_t num_points() const noexcept;
  /// Number of lock-striped shards (after power-of-two rounding).
  std::size_t num_shards() const noexcept { return shards_.size(); }
  /// Per-tier storage accounting. Thread-safe.
  StorageStats storage_stats() const;

  /// Persists every sealed-but-unpersisted block through the commit path
  /// flush and compaction share (snapshot -> segment -> manifest -> reload
  /// -> install; the install swaps the in-memory copies for the segment's
  /// memory-mapped ones), then rotates each shard's WAL (checkpointing the
  /// current heads, then deleting the old generation). No-op for in-memory
  /// stores. Thread-safe against concurrent ingest and queries; flush and
  /// compact serialize against each other. On InjectedCrash the store must
  /// be abandoned and reopened (disk state is consistent at every kill
  /// point — that is the crash-recovery test matrix).
  void flush();

  /// Rewrites all persisted state into one segment through the same commit
  /// path as flush(): merges consecutive non-overlapping blocks of up to
  /// 16384 points, applies retention (raw-expired blocks become ghosts,
  /// tier-expired ghosts are dropped), then deletes the old segments.
  /// Query results are byte-identical before and after, except for points
  /// removed by retention. Returns false if there was nothing to do. No-op
  /// (false) for in-memory stores. Thread-safe like flush().
  bool compact();

  /// flush() + fsync + release the WAL writers. After close() every
  /// mutation (put/seal/flush/compact) throws std::logic_error; queries
  /// and stats remain valid. Idempotent. No-op for in-memory stores.
  void close();

  /// Sizes of the live on-disk files. Thread-safe. Zeroes for in-memory
  /// stores.
  DiskStats disk_stats() const;

  /// What recovery found when this store was opened (zeroes for a fresh
  /// directory or an in-memory store).
  const RecoveryInfo& recovery_info() const noexcept { return recovery_; }

  /// Store-wide ingest epoch: a monotonic counter bumped by every put that
  /// lands points and by every seal_all, so a cache layered above
  /// the store (portal::QueryEngine) can key results by epoch and drop
  /// them the moment new data lands. The value carries no meaning beyond
  /// "changed since I last looked". Thread-safe, lock-free.
  std::uint64_t ingest_epoch() const noexcept {
    return epoch_->load(std::memory_order_acquire);
  }

  /// Runs a query: filter series, group, downsample, and aggregate across
  /// series within each group (per aligned timestamp). Thread-safe, and
  /// safe while ingest is in flight.
  std::vector<SeriesResult> query(const Query& q) const;

  /// Same query semantics, but fans the per-series work (decode, rate,
  /// downsample) out across `pool`, one task per shard; the final merge is
  /// ordered so results are byte-identical to the serial overload.
  /// Thread-safe; `pool` may be shared with concurrent ingest.
  std::vector<SeriesResult> query(const Query& q, util::ThreadPool& pool) const;

 private:
  /// Series::wal_id before the series' first frame in the live generation.
  static constexpr std::uint32_t kNoWalId = 0xffffffffu;

  struct Series {
    /// The metric: a view of the owning shard's metrics-map key.
    std::string_view metric;
    /// Sorted (key, value) views into the owning shard's intern pool.
    std::vector<std::pair<std::string_view, std::string_view>> tags;
    /// Immutable sealed tier, in seal (append-chunk) order. The first
    /// `persisted_blocks` entries are segment-backed (their byte streams
    /// view a segment mapping); the rest are memory-only, awaiting flush.
    std::vector<std::shared_ptr<const SealedBlock>> blocks;
    /// Mutable tail of the append sequence.
    std::vector<DataPoint> head;
    bool head_sorted = true;
    /// Length of the segment-backed prefix of `blocks`. Only install()
    /// changes it: under DurableState::mu, or in recovery before sharing.
    std::size_t persisted_blocks = 0;
    /// Points ever persisted into segments, monotonic across compaction
    /// and retention; WAL replay uses it to skip segment-covered points.
    std::uint64_t cum_persisted = 0;
    /// The series' id in the shard's live WAL generation, or kNoWalId
    /// until its definition is written. Rotation renumbers every series.
    std::uint32_t wal_id = kNoWalId;
  };
  struct Shard {
    mutable util::Mutex mu;
    /// Distinct tag keys/values, stored once per shard; std::set nodes are
    /// stable, so Series holds string_views into this pool.
    std::set<std::string, std::less<>> intern TACC_GUARDED_BY(mu);
    // metric -> canonical tag string -> series (ordered: queries traverse
    // series in canonical order, which keeps aggregation deterministic).
    // Nothing ever erases from these maps, and std::map nodes do not move
    // on insert, so a Series* (and its keys) stays valid for the store's
    // life: handles and a commit's slices hold them across the shard
    // locks.
    std::map<std::string, std::map<std::string, Series, std::less<>>,
             std::less<>>
        metrics TACC_GUARDED_BY(mu);
    /// Lock-free read path for num_points(); not guarded on purpose.
    std::atomic<std::size_t> points{0};
    /// Live WAL generation; null for in-memory stores and after close().
    /// Appends happen under `mu`, *before* the points are applied, so WAL
    /// order equals memory order.
    std::unique_ptr<WalWriter> wal TACC_GUARDED_BY(mu);
  };
  /// Everything a durable store adds. `mu` serializes flush/compact and
  /// orders strictly before any Shard::mu (one-way; shard locks are never
  /// nested with each other).
  struct DurableState {
    std::string dir;
    WalSync wal_sync = WalSync::OnFlush;
    std::map<std::string, RetentionPolicy> retention;
    std::shared_ptr<const util::FaultPlan> faults;
    util::Mutex mu;
    Manifest manifest TACC_GUARDED_BY(mu);
    std::atomic<bool> closed{false};
  };
  /// One series' part of a segment commit: the block range [first, last)
  /// the segment replaces, and the blocks and cum_sealed written in its
  /// place under the series' own keys. A slice left without blocks is not
  /// written and installs an empty range.
  struct Slice {
    Shard* shard = nullptr;
    Series* series = nullptr;
    std::string_view canon;  // the series' map key: the write order
    std::size_t first = 0;
    std::size_t last = 0;
    std::uint64_t cum_sealed = 0;
    std::vector<std::shared_ptr<const SealedBlock>> blocks;
  };
  /// A matched series snapshot plus its per-series query result; the
  /// snapshot (block refs + head copy) is taken under the shard lock and
  /// processed outside it.
  struct Partial {
    std::string series_key;  // canonical tags: global merge order
    TagSet group_tags;
    std::vector<std::shared_ptr<const SealedBlock>> blocks;
    std::vector<DataPoint> head;
    bool head_sorted = true;
    std::vector<std::pair<util::SimTime, double>> downsampled;
  };

  /// Finds or creates a series; caller must hold `shard.mu`.
  static Series& resolve_series(Shard& shard, const std::string& metric,
                                const TagSet& tags, std::string_view canon)
      TACC_REQUIRES(shard.mu);
  void append_run(Shard& shard, Series& series,
                  std::span<const DataPoint> points) TACC_REQUIRES(shard.mu);
  /// One shard's part of a put: under the shard lock, the WAL frame (in a
  /// durable store), then the points. Throws InjectedCrash (nothing
  /// applied, nothing acknowledged) or std::logic_error if the store was
  /// closed underneath the caller.
  void put_shard(Shard& shard, std::span<const Run> runs);
  /// Seals the first `n` head points (append order, stable-sorted by time)
  /// into a new block (with downsample tiers when the store is durable).
  /// A head the seal empties gives its memory back.
  void seal_prefix(Series& series, std::size_t n) const;
  /// Throws std::logic_error after close(), InjectedCrash semantics aside.
  void check_open() const;

  // --- durable internals (all require durable_ != nullptr) ---
  /// Recovery: manifest -> segments -> WAL replay -> rotation -> cleanup.
  void recover();
  /// Writes a fresh WAL generation for `shard`: a checkpoint of every
  /// series (definition, cum_persisted, unpersisted points) closed by the
  /// end marker, synced, swapped in, and the previous generation's file
  /// deleted. Renumbers the shard's series to their checkpoint ids.
  void rotate_wal(std::uint32_t index, Shard& shard, std::uint64_t gen)
      TACC_REQUIRES(shard.mu);
  /// Commit step 1: one slice per series whose range is non-empty — the
  /// unpersisted blocks for a flush, the persisted prefix for a compaction.
  /// `data_max`, when given, is raised to the newest data time stored.
  std::vector<Slice> snapshot(bool compaction, util::SimTime* data_max);
  /// The commit path of flush() and compact(): segment -> manifest (flush
  /// appends the segment, compaction replaces every segment) -> read-back
  /// -> install each visited series over its slice's range.
  void commit(DurableState& d, std::vector<Slice>& slices, bool compaction)
      TACC_REQUIRES(d.mu);
  /// The one rule that puts segment-backed blocks into a series, for flush,
  /// compaction and recovery: `blocks` replace series.blocks[first, last),
  /// the persisted prefix ends right after them, cum_persisted rises to
  /// `cum_sealed`, and the shard's point count moves by the difference.
  void install(Shard& shard, Series& series, std::size_t first,
               std::size_t last,
               std::span<const std::shared_ptr<const SealedBlock>> blocks,
               std::uint64_t cum_sealed) TACC_REQUIRES(shard.mu);
  /// Walks one matched series' snapshot, blocks then head, through the
  /// rate stage (rate queries), the range filter and the downsample
  /// buckets; overlapping sources are first merged into the head copy.
  static void process_series(const Query& q, Partial& p);
  std::vector<SeriesResult> query_impl(const Query& q,
                                       util::ThreadPool* pool) const;

  void bump_epoch() noexcept {
    epoch_->fetch_add(1, std::memory_order_acq_rel);
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Heap-allocated so the store stays movable (atomics are not).
  std::unique_ptr<std::atomic<std::uint64_t>> epoch_;
  std::size_t block_points_ = 1024;
  /// Null for in-memory stores.
  std::unique_ptr<DurableState> durable_;
  RecoveryInfo recovery_;
};

/// Applies an aggregator to a run of values (empty -> 0, except Count).
double aggregate(Aggregator agg, std::span<const double> values) noexcept;

}  // namespace tacc::tsdb

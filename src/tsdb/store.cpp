#include "tsdb/store.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/thread_pool.hpp"

namespace tacc::tsdb {

namespace {

namespace fs = std::filesystem;

/// Downsample tiers attached to every block a durable store seals,
/// ascending. Month-scale foldable queries whose bucket is a multiple of a
/// tier interval are answered from tier entries without decoding raw
/// points. In-memory stores seal without tiers.
constexpr util::SimTime kTierIntervals[] = {5 * util::kMinute, util::kHour};

/// Compaction merges consecutive non-overlapping persisted blocks of a
/// series until a merged block would exceed this many points.
constexpr std::size_t kCompactBlockPoints = 16384;

/// FNV-1a over metric + '\0' + canonical tags: a stable series->shard map
/// that does not depend on std::hash (so shard assignment, and therefore
/// any per-shard iteration, is reproducible across runs and platforms).
std::uint64_t series_hash(std::string_view metric,
                          std::string_view canon) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  mix(metric);
  h ^= 0xFFu;  // separator: ("ab", "c") and ("a", "bc") hash differently
  h *= 1099511628211ULL;
  mix(canon);
  return h;
}

std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool time_less(const DataPoint& a, const DataPoint& b) noexcept {
  return a.time < b.time;
}

/// Inclusive-exclusive range filter; both bounds 0 = unbounded.
bool in_range(const Query& q, util::SimTime t) noexcept {
  if (q.start == 0 && q.end == 0) return true;
  return t >= q.start && (q.end == 0 || t < q.end);
}

util::SimTime bucket_of(const Query& q, util::SimTime t) noexcept {
  return q.downsample > 0 ? t - t % q.downsample : t;
}

/// Sequential per-series bucket builder. Points arrive in merged time
/// order, so buckets complete strictly in order. For Min/Max/Count the
/// open bucket is a running fold — bit-identical to aggregate() over the
/// same values, and whole-block summaries can join the fold mid-bucket
/// (std::min/std::max keep the leftmost of tied values, which makes the
/// folds associative for non-NaN inputs; counts add exactly). For Sum/Avg,
/// whose float folds are order-dependent, the open bucket's values stage
/// in one reusable scratch vector — no per-bucket map nodes or temporary
/// vectors in the hot loop.
class BucketStager {
 public:
  BucketStager(const Query& q,
               std::vector<std::pair<util::SimTime, double>>& out) noexcept
      : q_(q),
        out_(out),
        fold_(q.downsample_aggregator == Aggregator::Min ||
              q.downsample_aggregator == Aggregator::Max ||
              q.downsample_aggregator == Aggregator::Count) {}

  void add(util::SimTime t, double v) {
    roll(bucket_of(q_, t));
    if (fold_) {
      fold_value(v);
      ++count_;
    } else {
      values_.push_back(v);
    }
  }

  /// True for Min/Max/Count: buckets fold, so whole-block summaries can
  /// join an open bucket via add_summary.
  bool foldable() const noexcept { return fold_; }

  /// Folds a whole block's summary into bucket `b` at the current stream
  /// position, exactly as if its points had been decoded one by one.
  /// Foldable aggregators only; the caller gates NaN summaries (a decode
  /// fold skips mid-stream NaNs a summary would absorb).
  void add_summary(util::SimTime b, double value, std::size_t count) {
    roll(b);
    fold_value(value);
    count_ += count;
  }

  /// True if the next contribution to bucket `b` would be its first — a
  /// NaN summary may seed a fold (the decode fold would stay NaN too) but
  /// must not join one.
  bool would_seed(util::SimTime b) const noexcept {
    return !open_ || bucket_ != b;
  }

  /// Emits a bucket answered entirely from summaries (Sum/Avg rollup);
  /// the caller guarantees no other point touches it.
  void emit_summary(util::SimTime b, double v) {
    flush();
    out_.emplace_back(b, v);
    last_ = b;
    has_last_ = true;
  }

  /// The most recent bucket touched (staged or emitted), if any.
  std::optional<util::SimTime> last_bucket() const noexcept {
    if (open_) return bucket_;
    if (has_last_) return last_;
    return std::nullopt;
  }

  void flush() {
    if (!open_) return;
    double v;
    if (fold_) {
      v = q_.downsample_aggregator == Aggregator::Count
              ? static_cast<double>(count_)
              : acc_;
      have_acc_ = false;
      count_ = 0;
    } else {
      v = aggregate(q_.downsample_aggregator, values_);
      values_.clear();
    }
    out_.emplace_back(bucket_, v);
    last_ = bucket_;
    has_last_ = true;
    open_ = false;
  }

 private:
  void roll(util::SimTime b) {
    if (!open_ || b != bucket_) {
      flush();
      bucket_ = b;
      open_ = true;
    }
  }

  void fold_value(double v) noexcept {
    if (!have_acc_) {
      acc_ = v;
      have_acc_ = true;
    } else {
      acc_ = q_.downsample_aggregator == Aggregator::Min ? std::min(acc_, v)
                                                         : std::max(acc_, v);
    }
  }

  const Query& q_;
  std::vector<std::pair<util::SimTime, double>>& out_;
  const bool fold_;
  std::vector<double> values_;
  double acc_ = 0.0;
  std::size_t count_ = 0;
  bool have_acc_ = false;
  util::SimTime bucket_ = 0;
  util::SimTime last_ = 0;
  bool open_ = false;
  bool has_last_ = false;
};

/// Longest retention key that is a prefix of `metric`, or null. The map is
/// small (a handful of metric families), so a linear scan is fine.
const RetentionPolicy* find_retention(
    const std::map<std::string, RetentionPolicy>& retention,
    std::string_view metric) noexcept {
  const RetentionPolicy* best = nullptr;
  std::size_t best_len = 0;
  for (const auto& [family, policy] : retention) {
    if (family.size() >= best_len && metric.starts_with(family)) {
      best = &policy;
      best_len = family.size();
    }
  }
  return best;
}

/// Parses "wal-<shard>-<gen>.log"; returns false for any other name.
bool parse_wal_name(const std::string& name, std::uint32_t& shard,
                    std::uint64_t& gen) {
  unsigned s = 0;
  unsigned long long g = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "wal-%u-%llu.log%n", &s, &g, &consumed) != 2 ||
      static_cast<std::size_t>(consumed) != name.size()) {
    return false;
  }
  shard = s;
  gen = g;
  return true;
}

/// Bucket answer straight from a block summary. Summary fields were
/// computed with aggregate()'s folds over the same value order a decode
/// would feed it, so this is bit-identical to the decoded answer.
double rollup_value(const BlockSummary& s, Aggregator agg) noexcept {
  switch (agg) {
    case Aggregator::Sum:
      return s.sum;
    case Aggregator::Avg:
      return s.sum / static_cast<double>(s.count);
    case Aggregator::Min:
      return s.min;
    case Aggregator::Max:
      return s.max;
    case Aggregator::Count:
      return static_cast<double>(s.count);
  }
  return 0.0;
}

}  // namespace

double aggregate(Aggregator agg, std::span<const double> values) noexcept {
  if (agg == Aggregator::Count) return static_cast<double>(values.size());
  if (values.empty()) return 0.0;
  double out = values.front();
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
    out = agg == Aggregator::Min ? std::min(out, v) : std::max(out, v);
  }
  switch (agg) {
    case Aggregator::Sum:
      return sum;
    case Aggregator::Avg:
      return sum / static_cast<double>(values.size());
    case Aggregator::Min:
    case Aggregator::Max:
      return out;
    case Aggregator::Count:
      break;
  }
  return 0.0;
}

Store::Store(const StoreOptions& options)
    : epoch_(std::make_unique<std::atomic<std::uint64_t>>(0)),
      block_points_(options.block_points) {
  const std::size_t n = round_up_pow2(std::max<std::size_t>(1, options.shards));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!options.data_dir.empty()) {
    durable_ = std::make_unique<DurableState>();
    durable_->dir = options.data_dir;
    durable_->wal_sync = options.wal_sync;
    durable_->retention = options.retention;
    durable_->faults = options.faults;
    recover();
  }
}

Store::Series& Store::resolve_series(Shard& shard, const std::string& metric,
                                     const TagSet& tags,
                                     std::string_view canon) {
  const auto mit = shard.metrics.try_emplace(metric).first;
  auto& by_tags = mit->second;
  auto sit = by_tags.find(canon);
  if (sit == by_tags.end()) {
    sit = by_tags.try_emplace(std::string(canon)).first;
    auto& series = sit->second;
    series.metric = mit->first;
    series.tags.reserve(tags.size());
    for (const auto& [k, v] : tags) {
      // insert, not emplace: no node is built for a string already held.
      const auto ki = shard.intern.insert(k).first;
      const auto vi = shard.intern.insert(v).first;
      series.tags.emplace_back(*ki, *vi);
    }
  }
  return sit->second;
}

void Store::seal_prefix(Series& series, std::size_t n) const {
  // Seal the oldest `n` points of the append sequence. The chunk is
  // stable-sorted by time, so together with the stable cross-source merge
  // at query time the decoded order reproduces the stable sort of the full
  // append sequence — the order the never-sealed store uses. Durable
  // stores attach downsample tiers (queries are byte-identical with or
  // without them, so this cannot break the determinism invariant).
  std::span<const DataPoint> chunk(series.head.data(), n);
  std::vector<DataPoint> sorted;
  if (!series.head_sorted) {
    sorted.assign(chunk.begin(), chunk.end());
    std::stable_sort(sorted.begin(), sorted.end(), time_less);
    chunk = sorted;
  }
  series.blocks.push_back(SealedBlock::seal(
      chunk, durable_ != nullptr
                 ? std::span<const util::SimTime>(kTierIntervals)
                 : std::span<const util::SimTime>{}));
  series.head.erase(series.head.begin(),
                    series.head.begin() + static_cast<long>(n));
  if (series.head.empty()) series.head.shrink_to_fit();
  series.head_sorted = true;
  for (std::size_t i = 1; i < series.head.size(); ++i) {
    if (series.head[i].time < series.head[i - 1].time) {
      series.head_sorted = false;
      break;
    }
  }
}

void Store::append_run(Shard& shard, Series& series,
                       std::span<const DataPoint> points) {
  for (const auto& p : points) {
    if (!series.head.empty() && series.head.back().time > p.time) {
      series.head_sorted = false;
    }
    series.head.push_back(p);
  }
  shard.points.fetch_add(points.size(), std::memory_order_relaxed);
  if (block_points_ > 0) {
    while (series.head.size() >= block_points_) {
      seal_prefix(series, block_points_);
    }
  }
}

Store::Handle Store::series(const std::string& metric, const TagSet& tags) {
  check_open();
  const std::string canon = canonical_tags(tags);
  const auto index = static_cast<std::uint32_t>(series_hash(metric, canon) &
                                                (shards_.size() - 1));
  Shard& shard = *shards_[index];
  util::MutexLock lock(shard.mu);
  return {index, &resolve_series(shard, metric, tags, canon)};
}

void Store::put(std::span<const Run> runs) {
  check_open();
  bool any = false;
  bool one_shard = true;
  for (const Run& r : runs) {
    any = any || !r.points.empty();
    one_shard = one_shard && r.series.shard_ == runs.front().series.shard_;
  }
  if (!any) return;
  if (one_shard) {  // every one-series put
    put_shard(*shards_[runs.front().series.shard_], runs);
  } else {
    // Group by shard, keeping call order within a shard: one visit each.
    std::vector<Run> by_shard(runs.begin(), runs.end());
    std::stable_sort(by_shard.begin(), by_shard.end(),
                     [](const Run& a, const Run& b) {
                       return a.series.shard_ < b.series.shard_;
                     });
    for (auto first = by_shard.begin(); first != by_shard.end();) {
      const auto last =
          std::find_if(first, by_shard.end(), [&](const Run& r) {
            return r.series.shard_ != first->series.shard_;
          });
      put_shard(*shards_[first->series.shard_], {first, last});
      first = last;
    }
  }
  bump_epoch();
}

void Store::put_shard(Shard& shard, std::span<const Run> runs) {
  util::MutexLock lock(shard.mu);
  if (durable_ != nullptr) {
    // Logged as one frame before it is applied: on InjectedCrash the
    // shard's part of the put is neither applied nor acknowledged.
    if (shard.wal == nullptr) {
      throw std::logic_error("tsdb::Store: put on closed store");
    }
    WalWriter& wal = *shard.wal;
    for (const Run& r : runs) {
      if (r.points.empty()) continue;
      Series& series = *r.series.series_;
      if (series.wal_id == kNoWalId) {
        series.wal_id = wal.define(series.metric, series.tags);
      }
      wal.run(series.wal_id, r.points);
    }
    wal.commit();
  }
  for (const Run& r : runs) append_run(shard, *r.series.series_, r.points);
}

void Store::seal_all() {
  check_open();
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    for (auto& [metric, by_tags] : shard->metrics) {
      for (auto& [key, series] : by_tags) {
        if (!series.head.empty()) seal_prefix(series, series.head.size());
      }
    }
  }
  bump_epoch();
}

std::size_t Store::num_series() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    for (const auto& [metric, series] : shard->metrics) n += series.size();
  }
  return n;
}

std::size_t Store::num_points() const noexcept {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard->points.load(std::memory_order_relaxed);
  }
  return n;
}

StorageStats Store::storage_stats() const {
  StorageStats s;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    for (const auto& [metric, by_tags] : shard->metrics) {
      for (const auto& [key, series] : by_tags) {
        s.head_points += series.head.size();
        s.sealed_blocks += series.blocks.size();
        for (const auto& b : series.blocks) {
          s.sealed_points += b->count();
          s.sealed_bytes += b->payload_bytes();
        }
      }
    }
  }
  return s;
}

void Store::check_open() const {
  if (durable_ != nullptr &&
      durable_->closed.load(std::memory_order_acquire)) {
    throw std::logic_error("tsdb::Store: mutation on closed store");
  }
}

void Store::install(Shard& shard, Series& series, std::size_t first,
                    std::size_t last,
                    std::span<const std::shared_ptr<const SealedBlock>> blocks,
                    std::uint64_t cum_sealed) {
  std::size_t old_pts = 0;
  for (std::size_t i = first; i < last; ++i) {
    old_pts += series.blocks[i]->count();
  }
  std::size_t new_pts = 0;
  for (const auto& b : blocks) new_pts += b->count();
  const auto at = series.blocks.begin() + static_cast<long>(first);
  series.blocks.insert(
      series.blocks.erase(at, series.blocks.begin() + static_cast<long>(last)),
      blocks.begin(), blocks.end());
  series.persisted_blocks = first + blocks.size();
  // cum_persisted is monotonic: a flush slice raises it, a compaction
  // slice carries it unchanged, and recovery keeps the larger count.
  series.cum_persisted = std::max(series.cum_persisted, cum_sealed);
  // Unsigned wrap-around: a retention drop subtracts.
  shard.points.fetch_add(new_pts - old_pts, std::memory_order_relaxed);
}

void Store::rotate_wal(std::uint32_t index, Shard& shard, std::uint64_t gen) {
  auto& d = *durable_;
  auto w = std::make_unique<WalWriter>(wal_path(d.dir, index, gen), index,
                                       gen, d.wal_sync, d.faults);
  std::vector<std::pair<Series*, std::uint32_t>> ids;
  std::vector<DataPoint> points;
  for (auto& [metric, by_tags] : shard.metrics) {
    for (auto& [key, series] : by_tags) {
      // The checkpoint must carry every point no segment covers: sealed
      // blocks past the persisted prefix (blocks sealed during replay, or
      // sealed by concurrent ingest after flush's snapshot) decode back
      // into it ahead of the head. Decoding is exact, and the chunks are
      // append-order slices, so replay's stable re-sort reproduces the
      // original sequence — seal timing never leaks into query bytes.
      points.clear();
      for (std::size_t i = series.persisted_blocks; i < series.blocks.size();
           ++i) {
        series.blocks[i]->decode_append(points);
      }
      points.insert(points.end(), series.head.begin(), series.head.end());
      ids.emplace_back(&series, w->checkpoint(metric, series.tags,
                                              series.cum_persisted, points));
    }
  }
  w->end_checkpoint();
  w->sync();
  // The new generation is durable: the old one (if any) is garbage. On an
  // injected crash above, `w`'s torn file stays on disk but shard.wal and
  // the series' ids are untouched — recovery sees an incomplete
  // checkpoint in the new generation and falls back to the old one.
  for (const auto& [series, id] : ids) series->wal_id = id;
  std::string old_path;
  if (shard.wal != nullptr) old_path = shard.wal->path();
  shard.wal = std::move(w);
  if (!old_path.empty()) {
    std::error_code ec;
    fs::remove(old_path, ec);  // best-effort; recovery sweeps leftovers
  }
}

void Store::recover() {
  auto& d = *durable_;
  fs::create_directories(d.dir);
  const bool had_manifest = fs::exists(d.dir + "/MANIFEST");
  Manifest manifest = read_manifest(d.dir);

  std::set<std::string> live;  // files recovery keeps
  live.insert("MANIFEST");
  for (const std::uint64_t seq : manifest.segments) {
    const std::string path = segment_path(d.dir, seq);
    load_segment(path, [this](const SegmentSeries& loaded) {
      const TagSet tags(loaded.tags.begin(), loaded.tags.end());
      const Handle h = series(std::string(loaded.metric), tags);
      Shard& shard = *shards_[h.shard_];
      util::MutexLock lock(shard.mu);
      // Manifest order is oldest-first and segments load before any WAL
      // replays, so every block so far is persisted: append in seal order.
      const std::size_t end = h.series_->blocks.size();
      install(shard, *h.series_, end, end, loaded.blocks, loaded.cum_sealed);
    });
    ++recovery_.segments_loaded;
    live.insert(fs::path(path).filename().string());
  }

  // WAL files are keyed by the *writing* store's shard index, which need
  // not match this store's shard count. A series' runs all live in one
  // file (its owner shard when written), in order — so replaying file by
  // file, resolving every definition by hash, preserves per-series apply
  // order under any resharding.
  std::map<std::uint32_t, std::vector<std::uint64_t>> wal_gens;
  for (const auto& entry : fs::directory_iterator(d.dir)) {
    std::uint32_t shard_idx = 0;
    std::uint64_t gen = 0;
    if (parse_wal_name(entry.path().filename().string(), shard_idx, gen)) {
      wal_gens[shard_idx].push_back(gen);
    }
  }

  for (auto& [wi, gv] : wal_gens) {
    std::sort(gv.begin(), gv.end(), std::greater<>());
    for (const std::uint64_t gen : gv) {
      WalReplay r;
      try {
        r = replay_wal(wal_path(d.dir, wi, gen));
      } catch (const WalVersionError&) {
        throw;  // another format: refuse it before any file is deleted
      } catch (const CorruptionError&) {
        continue;  // header torn at creation: use the previous generation
      }
      // A generation without its checkpoint-end marker died mid-rotation;
      // the previous generation still holds the full history since *its*
      // checkpoint, so fall back.
      if (!r.checkpoint_complete) continue;
      if (r.torn_offset.has_value()) ++recovery_.torn_tails;
      ++recovery_.wal_generations_replayed;
      // Per-series skip budget: the runs replay the append sequence since
      // the generation started (checkpoint points, then puts), and sealing
      // always persists its oldest prefix first — so dropping
      // (cum_persisted - checkpoint cum) points off the front removes
      // exactly the ones a completed flush already moved into segments.
      std::vector<std::pair<Handle, std::uint64_t>> budget;
      budget.reserve(r.series.size());
      for (const WalSeries& def : r.series) {
        const Handle h = series(def.metric, def.tags);
        util::MutexLock lock(shards_[h.shard_]->mu);
        const std::uint64_t have = h.series_->cum_persisted;
        budget.emplace_back(h, have > def.cum_sealed ? have - def.cum_sealed
                                                     : 0);
      }
      for (const WalRun& run : r.runs) {
        ++recovery_.wal_runs;
        auto& [h, left] = budget[run.series];
        const std::uint64_t skip =
            std::min<std::uint64_t>(left, run.points.size());
        left -= skip;
        recovery_.points_skipped += static_cast<std::size_t>(skip);
        const auto rest =
            std::span(run.points).subspan(static_cast<std::size_t>(skip));
        if (rest.empty()) continue;
        Shard& shard = *shards_[h.shard_];
        util::MutexLock lock(shard.mu);
        append_run(shard, *h.series_, rest);
        recovery_.points_replayed += rest.size();
      }
      break;
    }
  }

  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& shard = *shards_[si];
    const auto it = wal_gens.find(static_cast<std::uint32_t>(si));
    const std::uint64_t max_gen =
        it == wal_gens.end() || it->second.empty() ? 0 : it->second.front();
    util::MutexLock lock(shard.mu);
    rotate_wal(static_cast<std::uint32_t>(si), shard, max_gen + 1);
    live.insert(fs::path(shard.wal->path()).filename().string());
  }

  // Everything else in the directory is dead: segments a crash left
  // unreferenced by the manifest, superseded WAL generations, tmp files.
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(d.dir)) {
    if (live.count(entry.path().filename().string()) == 0) {
      stale.push_back(entry.path());
    }
  }
  for (const auto& path : stale) {
    std::error_code ec;
    fs::remove(path, ec);
    if (!ec) ++recovery_.stale_files_removed;
  }

  if (!had_manifest) {
    write_manifest(d.dir, manifest, d.faults.get(), util::kFaultBlockFileWrite,
                   0);
  }
  util::MutexLock lock(d.mu);
  d.manifest = manifest;
}

std::vector<Store::Slice> Store::snapshot(bool compaction,
                                          util::SimTime* data_max) {
  std::vector<Slice> slices;
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    for (auto& [metric, by_tags] : shard->metrics) {
      for (auto& [canon, series] : by_tags) {
        if (data_max != nullptr) {
          for (const auto& b : series.blocks) {
            *data_max = std::max(*data_max, b->t_max());
          }
          for (const auto& p : series.head) {
            *data_max = std::max(*data_max, p.time);
          }
        }
        const std::size_t first = compaction ? 0 : series.persisted_blocks;
        const std::size_t last =
            compaction ? series.persisted_blocks : series.blocks.size();
        if (first == last) continue;
        std::uint64_t cum = series.cum_persisted;
        for (std::size_t i = std::max(first, series.persisted_blocks); i < last;
             ++i) {
          cum += series.blocks[i]->count();
        }
        const auto at = series.blocks.begin();
        slices.push_back({shard.get(), &series, canon, first, last, cum,
                          {at + static_cast<long>(first),
                           at + static_cast<long>(last)}});
      }
    }
  }
  return slices;
}

void Store::commit(DurableState& d, std::vector<Slice>& slices,
                   bool compaction) {
  // The format wants series sorted by (metric, canonical tags) so the same
  // logical state always produces the same file bytes. The slices stay
  // valid outside the shard locks: ingest only appends blocks, the
  // persisted prefix moves only here, under d.mu, and a series' key views
  // never change.
  std::sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
    return std::tie(a.series->metric, a.canon) <
           std::tie(b.series->metric, b.canon);
  });
  std::vector<SegmentSeries> written;
  for (const Slice& s : slices) {
    if (!s.blocks.empty()) {
      written.push_back(
          {s.series->metric, s.series->tags, s.cum_sealed, s.blocks});
    }
  }

  // Segment first (inert until named), then the manifest commit point.
  const std::uint64_t seq = d.manifest.next_seq;
  const std::string path = segment_path(d.dir, seq);
  write_segment(path, seq, written, d.faults.get(),
                compaction ? "compact" : "segment");
  Manifest m = d.manifest;
  if (compaction) m.segments.clear();
  m.segments.push_back(seq);
  m.next_seq = seq + 1;
  write_manifest(d.dir, m, d.faults.get(),
                 compaction ? util::kFaultCompactCommit
                            : util::kFaultBlockFileWrite,
                 seq);
  d.manifest = std::move(m);

  // Swap in the mmap-backed copies. The read-back checks every CRC and
  // visits the series in write order, so the n-th visited series belongs
  // to the n-th written slice; its key views go unused.
  auto next = slices.begin();
  const auto install_next =
      [&](std::span<const std::shared_ptr<const SealedBlock>> blocks) {
        const Slice& s = *next++;
        Shard& shard = *s.shard;
        util::MutexLock lock(shard.mu);
        install(shard, *s.series, s.first, s.last, blocks, s.cum_sealed);
      };
  load_segment(path, [&](const SegmentSeries& loaded) {
    while (next != slices.end() && next->blocks.empty()) install_next({});
    if (next == slices.end()) {
      throw CorruptionError("segment holds more series than were written", 0);
    }
    install_next(loaded.blocks);
  });
  while (next != slices.end()) install_next({});
}

void Store::flush() {
  if (durable_ == nullptr) return;
  check_open();
  auto& d = *durable_;
  util::MutexLock dlock(d.mu);

  // 1. Commit every sealed-but-unpersisted block.
  std::vector<Slice> slices = snapshot(/*compaction=*/false, nullptr);
  if (!slices.empty()) commit(d, slices, /*compaction=*/false);

  // 2. Rotate every shard's WAL. The fresh checkpoint re-bases each series
  // on its new cum_persisted, so the old generation's batch history —
  // including everything the segment just absorbed — is dead.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& shard = *shards_[si];
    util::MutexLock lock(shard.mu);
    if (shard.wal != nullptr) {
      rotate_wal(static_cast<std::uint32_t>(si), shard,
                 shard.wal->gen() + 1);
    }
  }
}

bool Store::compact() {
  if (durable_ == nullptr) return false;
  check_open();
  auto& d = *durable_;
  util::MutexLock dlock(d.mu);

  // Snapshot every persisted prefix, and find the newest timestamp in the
  // store — retention horizons are measured from data time (the store has
  // no clock; see the determinism audit).
  util::SimTime data_max = std::numeric_limits<util::SimTime>::min();
  std::vector<Slice> slices = snapshot(/*compaction=*/true, &data_max);
  if (slices.empty()) return false;

  // Plan the rewrite of each slice's blocks: apply retention, then merge
  // runs of consecutive non-overlapping raw blocks up to
  // kCompactBlockPoints. Re-sealing the concatenated decode is exact: each
  // block decodes to a sorted run and next.t_min >= prev.t_max, so the
  // concatenation is the same stable time-sorted append sequence the
  // original seal saw.
  bool changed = d.manifest.segments.size() > 1;
  for (Slice& s : slices) {
    const RetentionPolicy* policy =
        find_retention(d.retention, s.series->metric);
    const std::vector<std::shared_ptr<const SealedBlock>> in =
        std::exchange(s.blocks, {});
    auto& out = s.blocks;
    std::vector<std::shared_ptr<const SealedBlock>> run;
    std::size_t run_points = 0;
    const auto emit_run = [&] {
      if (run.empty()) return;
      if (run.size() == 1) {
        out.push_back(std::move(run.front()));
      } else {
        std::vector<DataPoint> pts;
        pts.reserve(run_points);
        for (const auto& b : run) b->decode_append(pts);
        out.push_back(SealedBlock::seal(pts, kTierIntervals));
        changed = true;
      }
      run.clear();
      run_points = 0;
    };
    for (const auto& b : in) {
      const bool tier_expired = policy != nullptr && policy->tiers > 0 &&
                                b->t_max() < data_max - policy->tiers;
      const bool raw_expired = policy != nullptr && policy->raw > 0 &&
                               b->t_max() < data_max - policy->raw;
      if (tier_expired) {  // dropped entirely (cum_sealed keeps counting it)
        emit_run();
        changed = true;
        continue;
      }
      if (!b->has_raw() || raw_expired) {
        emit_run();
        if (b->has_raw()) {
          // Raw expired: keep a ghost (summary + tiers). The tier spans
          // still view the old block's buffers, so pin it as backing until
          // the segment write copies the bytes out.
          std::vector<TierLevel> tl(b->tiers().begin(), b->tiers().end());
          out.push_back(
              SealedBlock::from_parts(b->summary(), {}, {}, std::move(tl), b));
          changed = true;
        } else {
          out.push_back(b);
        }
        continue;
      }
      if (!run.empty() && (run_points + b->count() > kCompactBlockPoints ||
                           b->t_min() < run.back()->t_max())) {
        emit_run();
      }
      run_points += b->count();
      run.push_back(b);
    }
    emit_run();
  }
  if (!changed) return false;

  const std::vector<std::uint64_t> old_segments = d.manifest.segments;
  commit(d, slices, /*compaction=*/true);

  // Unlink the superseded segments; query snapshots still holding their
  // blocks keep the mappings alive (POSIX allows unlink-while-mapped).
  for (const std::uint64_t old_seq : old_segments) {
    std::error_code ec;
    fs::remove(segment_path(d.dir, old_seq), ec);
  }
  return true;
}

void Store::close() {
  if (durable_ == nullptr) return;
  if (durable_->closed.load(std::memory_order_acquire)) return;
  flush();  // rotates every WAL to a synced checkpoint-only generation
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    shard->wal.reset();
  }
  durable_->closed.store(true, std::memory_order_release);
}

DiskStats Store::disk_stats() const {
  DiskStats out;
  if (durable_ == nullptr) return out;
  auto& d = *durable_;
  util::MutexLock dlock(d.mu);
  for (const std::uint64_t seq : d.manifest.segments) {
    std::error_code ec;
    const auto sz = fs::file_size(segment_path(d.dir, seq), ec);
    if (!ec) {
      ++out.segment_files;
      out.segment_bytes += static_cast<std::size_t>(sz);
    }
  }
  for (const auto& entry : fs::directory_iterator(d.dir)) {
    std::uint32_t shard_idx = 0;
    std::uint64_t gen = 0;
    if (parse_wal_name(entry.path().filename().string(), shard_idx, gen)) {
      std::error_code ec;
      const auto sz = entry.file_size(ec);
      if (!ec) out.wal_bytes += static_cast<std::size_t>(sz);
    }
  }
  for (const auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    for (const auto& [metric, by_tags] : shard->metrics) {
      for (const auto& [key, series] : by_tags) {
        for (std::size_t i = 0; i < series.persisted_blocks; ++i) {
          out.tier_bytes += series.blocks[i]->tier_bytes();
          out.persisted_points += series.blocks[i]->count();
        }
      }
    }
  }
  return out;
}

std::vector<SeriesResult> Store::query(const Query& q) const {
  return query_impl(q, nullptr);
}

std::vector<SeriesResult> Store::query(const Query& q,
                                       util::ThreadPool& pool) const {
  return query_impl(q, &pool);
}

void Store::process_series(const Query& q, Partial& p) {
  if (!p.head_sorted) {
    std::stable_sort(p.head.begin(), p.head.end(), time_less);
    p.head_sorted = true;
  }

  // Are the sources (blocks in seal order, then the head) already in
  // global time order? In the common monotonic-ingest case they are. If
  // not, every source is merged into the head copy: decoded blocks are
  // time-sorted runs in append-chunk order, so a stable sort of the
  // concatenation reproduces the stable sort of the full append sequence —
  // bit-identical to the never-sealed store.
  bool ordered = true;
  util::SimTime prev_max = std::numeric_limits<util::SimTime>::min();
  for (const auto& b : p.blocks) {
    ordered = ordered && b->t_min() >= prev_max;
    prev_max = b->t_max();
  }
  if (!p.head.empty()) ordered = ordered && p.head.front().time >= prev_max;
  if (!ordered) {
    std::vector<DataPoint> merged;
    for (const auto& b : p.blocks) b->decode_append(merged);
    merged.insert(merged.end(), p.head.begin(), p.head.end());
    std::stable_sort(merged.begin(), merged.end(), time_less);
    p.head = std::move(merged);
    p.blocks.clear();
  }

  // One walk over the sources in time order. The rate stage turns each
  // point into its per-second delta from the point before it, which is
  // carried across blocks and across points outside the range: a repeated
  // timestamp (dt <= 0) yields no point, and a negative delta (a counter
  // reset or wrap) clamps to 0. The range filter applies after the stage.
  BucketStager stager(q, p.downsampled);
  DataPoint prev{};
  bool have_prev = false;
  const auto feed = [&](const DataPoint& pt) {
    if (q.rate) {
      const DataPoint before = std::exchange(prev, pt);
      if (!std::exchange(have_prev, true)) return;
      const double dt = util::to_seconds(pt.time - before.time);
      if (dt <= 0.0 || !in_range(q, pt.time)) return;
      const double delta = pt.value - before.value;
      stager.add(pt.time, delta > 0.0 ? delta / dt : 0.0);
    } else if (in_range(q, pt.time)) {
      stager.add(pt.time, pt.value);
    }
  };

  // A block past a bounded end is skipped on its summary alone, and so is
  // one before the start unless a rate needs its last point. A downsample
  // bucket covered by whole blocks — with both neighbours clear of it — is
  // answered from summaries without decoding (the rollup fast path), and a
  // block's tier entries can stand in for its points; both summarize raw
  // values, so a rate walk decodes instead. Everything else streams
  // through a decode cursor.
  const bool fast = !q.rate && q.downsample > 0;
  DataPoint pt;
  for (std::size_t i = 0; i < p.blocks.size(); ++i) {
    const SealedBlock& b = *p.blocks[i];
    if ((q.end != 0 && b.t_min() >= q.end) ||
        (!q.rate && (q.start != 0 || q.end != 0) && b.t_max() < q.start)) {
      continue;
    }
    if (fast && in_range(q, b.t_min()) && in_range(q, b.t_max()) &&
        bucket_of(q, b.t_min()) == bucket_of(q, b.t_max())) {
      const util::SimTime bb = bucket_of(q, b.t_min());
      const Aggregator agg = q.downsample_aggregator;
      if (stager.foldable()) {
        // Min/Max/Count: the summary joins the bucket's running fold at
        // this stream position, so neighbouring blocks and head points may
        // share the bucket freely. A NaN Min/Max summary may only seed a
        // fresh fold (decode skips mid-stream NaNs a summary would absorb).
        const double s = rollup_value(b.summary(), agg);
        if (agg == Aggregator::Count || s == s || stager.would_seed(bb)) {
          stager.add_summary(bb, s, b.summary().count);
          continue;
        }
      } else {
        // Sum/Avg folds are order-dependent in float, so the summary is
        // usable only when it covers the bucket exclusively: nothing
        // staged there yet, and the next source starts in a later bucket.
        util::SimTime next_t = 0;
        bool has_next = false;
        if (i + 1 < p.blocks.size()) {
          next_t = p.blocks[i + 1]->t_min();
          has_next = true;
        } else if (!p.head.empty()) {
          next_t = p.head.front().time;
          has_next = true;
        }
        const auto last = stager.last_bucket();
        if ((!last.has_value() || *last < bb) &&
            (!has_next || bucket_of(q, next_t) > bb)) {
          stager.emit_summary(bb, rollup_value(b.summary(), agg));
          continue;
        }
      }
    }
    // Tier fast path: a foldable downsample whose bucket is a multiple of
    // a tier interval folds the block's tier entries instead of decoding
    // raw points — each entry covers one interval-aligned run, so all its
    // points share one query bucket, and by associativity of the
    // Min/Max/Count folds (tier entries were folded with aggregate()'s
    // folds in stored order) the result is bit-identical to decoding.
    // Bucket boundaries shared with neighbouring sources join the running
    // fold exactly like block summaries do. An entry whose fold went NaN
    // would absorb a join the decode fold would skip, so has_nan tiers
    // fall back to decode (Count is exempt: counts are exact regardless).
    // This is also the only read path for retention ghosts.
    if (fast && stager.foldable() && !b.tiers().empty() &&
        in_range(q, b.t_min()) && in_range(q, b.t_max())) {
      const Aggregator agg = q.downsample_aggregator;
      const TierLevel* best = nullptr;
      for (const auto& t : b.tiers()) {  // ascending: last match = coarsest
        if (t.interval > 0 && q.downsample % t.interval == 0 &&
            (agg == Aggregator::Count || !t.has_nan)) {
          best = &t;
        }
      }
      if (best != nullptr) {
        SealedBlock::TierCursor tc(*best);
        TierEntry e;
        while (tc.next(e)) {
          const double v = agg == Aggregator::Min   ? e.min
                           : agg == Aggregator::Max ? e.max
                                                    : static_cast<double>(
                                                          e.count);
          stager.add_summary(bucket_of(q, e.bucket), v, e.count);
        }
        continue;
      }
    }
    auto c = b.cursor();
    while (c.next(pt)) feed(pt);
  }
  for (const auto& hp : p.head) feed(hp);
  stager.flush();
}

std::vector<SeriesResult> Store::query_impl(const Query& q,
                                            util::ThreadPool* pool) const {
  // Phase 1, per shard (parallel when a pool is given): under the shard
  // lock, snapshot every matching series — shared_ptr refs to its
  // immutable sealed blocks plus a copy of its bounded head buffer — then,
  // outside the lock, stream it into a per-series bucket list (decode,
  // rate, range filter, downsample, with summary skips and rollups). This
  // part is embarrassingly parallel across series.
  std::vector<std::vector<Partial>> per_shard(shards_.size());
  const auto scan_shard = [&](std::size_t si) {
    const Shard& shard = *shards_[si];
    std::vector<Partial>& out = per_shard[si];
    {
      util::MutexLock lock(shard.mu);
      const auto mit = shard.metrics.find(q.metric);
      if (mit == shard.metrics.end()) return;
      for (const auto& [key, series] : mit->second) {
        // Tag filters.
        bool ok = true;
        for (const auto& [fk, fv] : q.filters) {
          const auto it = std::lower_bound(
              series.tags.begin(), series.tags.end(), fk,
              [](const auto& tag, const std::string& k) {
                return tag.first < k;
              });
          if (it == series.tags.end() || it->first != fk ||
              it->second != fv) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;

        Partial p;
        p.series_key = key;
        for (const auto& g : q.group_by) {
          const auto it = std::lower_bound(
              series.tags.begin(), series.tags.end(), g,
              [](const auto& tag, const std::string& k) {
                return tag.first < k;
              });
          p.group_tags[g] = it == series.tags.end() || it->first != g
                                ? std::string{}
                                : std::string(it->second);
        }
        p.blocks = series.blocks;
        p.head = series.head;
        p.head_sorted = series.head_sorted;
        out.push_back(std::move(p));
      }
    }

    for (Partial& p : out) process_series(q, p);
  };
  if (pool != nullptr && shards_.size() > 1) {
    pool->parallel_for(shards_.size(), scan_shard);
  } else {
    for (std::size_t si = 0; si < shards_.size(); ++si) scan_shard(si);
  }

  // Phase 2, serial: merge partials in global canonical-key order — the
  // exact order a single-map serial store would traverse — so the value
  // vectors fed to the aggregator (and thus floating-point results) do not
  // depend on sharding or thread schedule.
  std::vector<const Partial*> ordered;
  for (const auto& shard_partials : per_shard) {
    for (const auto& p : shard_partials) ordered.push_back(&p);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Partial* a, const Partial* b) {
              return a->series_key < b->series_key;
            });

  struct Group {
    TagSet tags;
    std::map<util::SimTime, std::vector<double>> buckets;
  };
  std::map<std::string, Group> groups;
  for (const Partial* p : ordered) {
    auto& group = groups[canonical_tags(p->group_tags)];
    group.tags = p->group_tags;
    for (const auto& [t, v] : p->downsampled) {
      group.buckets[t].push_back(v);
    }
  }

  std::vector<SeriesResult> out;
  out.reserve(groups.size());
  for (const auto& [key, group] : groups) {
    SeriesResult r;
    r.group_tags = group.tags;
    r.points.reserve(group.buckets.size());
    for (const auto& [t, vals] : group.buckets) {
      r.points.push_back({t, aggregate(q.aggregator, vals)});
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace tacc::tsdb

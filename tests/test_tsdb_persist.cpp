// Durable tiered block storage: flush/reopen and WAL-replay byte-identity,
// downsample-tier query equivalence, compaction equivalence, retention
// ghosts, close() semantics, disk accounting, WAL format 2 (inline
// definitions, resharded replay, refusal of another version), and the
// golden-file format pins (writer reproduces the committed fixtures byte
// for byte; reader decodes them exactly). The crash matrix lives in
// test_tsdb_recovery.cpp; corruption fuzzing in test_fuzz_properties.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "tsdb/blockfile.hpp"
#include "tsdb/store.hpp"
#include "tsdb/wal.hpp"
#include "util/rng.hpp"

namespace tacc::tsdb {
namespace {

namespace fs = std::filesystem;

constexpr util::SimTime kT0 = 1451606400LL * util::kSecond;

/// A fresh empty directory under the test tempdir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Exact equality of query outputs (tags, times, and bit-equal values).
void expect_identical(const std::vector<SeriesResult>& a,
                      const std::vector<SeriesResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].group_tags, b[i].group_tags);
    ASSERT_EQ(a[i].points.size(), b[i].points.size()) << "series " << i;
    for (std::size_t p = 0; p < a[i].points.size(); ++p) {
      EXPECT_EQ(a[i].points[p].time, b[i].points[p].time);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].points[p].value),
                std::bit_cast<std::uint64_t>(b[i].points[p].value))
          << "series " << i << " point " << p << ": "
          << a[i].points[p].value << " vs " << b[i].points[p].value;
    }
  }
}

/// Deterministic mixed workload: 3 hosts x 2 metrics, a month-scale span,
/// out-of-order tails, and one series salted with NaN / Inf / -0.0.
void load_sample(Store& s, int minutes = 240) {
  for (int h = 0; h < 3; ++h) {
    const TagSet tags = {{"host", "c400-00" + std::to_string(h)}};
    std::vector<DataPoint> cpu;
    std::vector<DataPoint> ib;
    for (int i = 0; i < minutes; ++i) {
      const util::SimTime t = kT0 + i * util::kMinute;
      cpu.push_back({t, 100.0 * h + i + 0.25});
      double v = 7.0 * i + h;
      if (h == 2 && i % 17 == 0) v = std::numeric_limits<double>::quiet_NaN();
      if (h == 2 && i % 31 == 0) v = -0.0;
      if (h == 1 && i % 53 == 0) v = std::numeric_limits<double>::infinity();
      ib.push_back({t, v});
    }
    // Out-of-order tail: the last two points swap.
    if (cpu.size() > 2) std::swap(cpu[cpu.size() - 1], cpu[cpu.size() - 2]);
    s.put_batch("taccstats.cpu.user", tags, cpu);
    s.put_batch("taccstats.ib.rx_bytes", tags, ib);
  }
}

/// The probe set: every aggregator family, grouped and ungrouped, tiered
/// and raw cadence, bounded and unbounded ranges.
std::vector<Query> probe_queries() {
  std::vector<Query> qs;
  {
    Query q;
    q.metric = "taccstats.cpu.user";
    qs.push_back(q);  // raw sum, unbounded
  }
  {
    Query q;
    q.metric = "taccstats.cpu.user";
    q.group_by = {"host"};
    q.downsample = util::kHour;
    q.downsample_aggregator = Aggregator::Max;
    qs.push_back(q);
  }
  {
    Query q;
    q.metric = "taccstats.ib.rx_bytes";
    q.group_by = {"host"};
    q.downsample = util::kHour;
    q.downsample_aggregator = Aggregator::Min;
    qs.push_back(q);
  }
  {
    Query q;
    q.metric = "taccstats.ib.rx_bytes";
    q.downsample = util::kHour;
    q.downsample_aggregator = Aggregator::Count;
    q.start = kT0 + 37 * util::kMinute;  // misaligned partial range
    q.end = kT0 + 181 * util::kMinute;
    qs.push_back(q);
  }
  {
    Query q;
    q.metric = "taccstats.ib.rx_bytes";
    q.group_by = {"host"};
    q.downsample = 2 * util::kHour;
    q.downsample_aggregator = Aggregator::Avg;
    qs.push_back(q);
  }
  {
    Query q;
    q.metric = "taccstats.cpu.user";
    q.rate = true;
    q.downsample = 5 * util::kMinute;
    q.downsample_aggregator = Aggregator::Avg;
    qs.push_back(q);
  }
  return qs;
}

void expect_same_results(const Store& a, const Store& b) {
  for (const Query& q : probe_queries()) {
    expect_identical(a.query(q), b.query(q));
  }
}

StoreOptions durable_options(const std::string& dir) {
  StoreOptions o;
  o.data_dir = dir;
  o.shards = 4;
  o.block_points = 64;
  return o;
}

// ---- Flush / reopen ----------------------------------------------------

TEST(TsdbPersist, FlushReopenByteIdentical) {
  const std::string dir = fresh_dir("persist_flush_reopen");
  Store mem;
  load_sample(mem);
  {
    Store s(durable_options(dir));
    load_sample(s);
    s.seal_all();
    s.flush();
    expect_same_results(s, mem);
    s.close();
  }
  Store r = Store::open(dir);
  EXPECT_GE(r.recovery_info().segments_loaded, 1u);
  EXPECT_EQ(r.recovery_info().points_replayed, 0u);  // all segment-covered
  EXPECT_EQ(r.num_points(), mem.num_points());
  expect_same_results(r, mem);
}

TEST(TsdbPersist, TagValuesHoldingSeparatorsStayDistinctSeries) {
  // Host and device tags come from whitespace-split raw-text tokens, which
  // may hold ',' and '='. {a="x,b=y"} and {a="x", b="y"} are different
  // series, before and after a durable flush and reopen.
  const auto check = [](const Store& s) {
    EXPECT_EQ(s.num_series(), 2u);
    Query by_b;
    by_b.metric = "m";
    by_b.filters = {{"b", "y"}};
    const auto only_b = s.query(by_b);
    ASSERT_EQ(only_b.size(), 1u);
    ASSERT_EQ(only_b[0].points.size(), 1u);
    EXPECT_EQ(only_b[0].points[0].value, 2.0);
    Query by_a;
    by_a.metric = "m";
    by_a.group_by = {"a"};
    const auto groups = s.query(by_a);
    ASSERT_EQ(groups.size(), 2u);
    for (const auto& g : groups) {
      ASSERT_EQ(g.points.size(), 1u);
      EXPECT_EQ(g.points[0].value, g.group_tags.at("a") == "x" ? 2.0 : 1.0);
    }
  };
  const std::string dir = fresh_dir("persist_tag_separators");
  {
    Store s(durable_options(dir));
    const DataPoint first{kT0, 1.0};
    const DataPoint second{kT0, 2.0};
    s.put_batch("m", {{"a", "x,b=y"}}, {&first, 1});
    s.put_batch("m", {{"a", "x"}, {"b", "y"}}, {&second, 1});
    check(s);
    s.seal_all();
    s.flush();
    s.close();
  }
  const Store r = Store::open(dir);
  check(r);
}

TEST(TsdbPersist, DestructorIsCrashEquivalentWalRecovers) {
  const std::string dir = fresh_dir("persist_dtor_wal");
  Store mem;
  load_sample(mem, 60);
  {
    Store s(durable_options(dir));
    load_sample(s, 60);
    // No flush, no close: everything lives in the WALs only.
  }
  Store r = Store::open(dir);
  EXPECT_EQ(r.recovery_info().segments_loaded, 0u);
  EXPECT_GT(r.recovery_info().points_replayed, 0u);
  EXPECT_EQ(r.recovery_info().torn_tails, 0u);
  EXPECT_EQ(r.num_points(), mem.num_points());
  expect_same_results(r, mem);
}

TEST(TsdbPersist, FlushedPointsAreSkippedAtReplayNotDuplicated) {
  const std::string dir = fresh_dir("persist_skip");
  {
    Store s(durable_options(dir));
    load_sample(s, 90);
    s.seal_all();
    s.flush();
    // Post-flush appends land in the rotated WAL generation.
    for (int h = 0; h < 3; ++h) {
      const TagSet tags = {{"host", "c400-00" + std::to_string(h)}};
      std::vector<DataPoint> cpu;
      std::vector<DataPoint> ib;
      for (int i = 90; i < 120; ++i) {
        const util::SimTime t = kT0 + i * util::kMinute;
        cpu.push_back({t, 100.0 * h + i + 0.25});
        double v = 7.0 * i + h;
        if (h == 2 && i % 17 == 0) {
          v = std::numeric_limits<double>::quiet_NaN();
        }
        if (h == 2 && i % 31 == 0) v = -0.0;
        if (h == 1 && i % 53 == 0) {
          v = std::numeric_limits<double>::infinity();
        }
        ib.push_back({t, v});
      }
      s.put_batch("taccstats.cpu.user", tags, cpu);
      s.put_batch("taccstats.ib.rx_bytes", tags, ib);
    }
  }
  // load_sample(90) swaps the last two points of each cpu batch and
  // load_sample(120) swaps a different pair, so rebuild the mirror the
  // same split way for exact order equality.
  Store mem2;
  load_sample(mem2, 90);
  for (int h = 0; h < 3; ++h) {
    const TagSet tags = {{"host", "c400-00" + std::to_string(h)}};
    std::vector<DataPoint> cpu;
    std::vector<DataPoint> ib;
    for (int i = 90; i < 120; ++i) {
      const util::SimTime t = kT0 + i * util::kMinute;
      cpu.push_back({t, 100.0 * h + i + 0.25});
      double v = 7.0 * i + h;
      if (h == 2 && i % 17 == 0) v = std::numeric_limits<double>::quiet_NaN();
      if (h == 2 && i % 31 == 0) v = -0.0;
      if (h == 1 && i % 53 == 0) v = std::numeric_limits<double>::infinity();
      ib.push_back({t, v});
    }
    mem2.put_batch("taccstats.cpu.user", tags, cpu);
    mem2.put_batch("taccstats.ib.rx_bytes", tags, ib);
  }
  Store r = Store::open(dir);
  EXPECT_GE(r.recovery_info().segments_loaded, 1u);
  EXPECT_GT(r.recovery_info().points_replayed, 0u);
  EXPECT_EQ(r.num_points(), mem2.num_points());
  expect_same_results(r, mem2);
}

TEST(TsdbPersist, ReopenWithDifferentShardCountIsByteIdentical) {
  const std::string dir = fresh_dir("persist_reshard");
  Store mem;
  load_sample(mem);
  {
    StoreOptions o = durable_options(dir);
    o.shards = 8;
    Store s(o);
    load_sample(s);
    s.seal_all();
    s.flush();
  }
  StoreOptions o = durable_options(dir);
  o.shards = 2;  // shrink: WAL files 2..7 must still replay by hash
  Store r(o);
  EXPECT_EQ(r.num_points(), mem.num_points());
  expect_same_results(r, mem);
}

// ---- Downsample tiers --------------------------------------------------

/// Copies the store directory `from` into a fresh directory `name`.
std::string copy_dir(const std::string& from, const std::string& name) {
  const std::string to = fresh_dir(name);
  fs::copy(from, to, fs::copy_options::recursive);
  return to;
}

TEST(TsdbPersist, WalInlineDefinitionsReplayUnderAnyShardCount) {
  // Unflushed WAL content of a 16-shard store: checkpoints for the
  // series that existed at rotation, then puts that define new series
  // inline and put to them again by id.
  const std::string dir = fresh_dir("persist_wal2_reshard");
  Store mem;
  load_sample(mem, 90);
  {
    StoreOptions o = durable_options(dir);
    o.shards = 16;
    Store s(o);
    load_sample(s, 90);
    s.seal_all();
    s.flush();
    for (Store* store : {&s, &mem}) {
      for (int round = 0; round < 2; ++round) {
        std::vector<std::vector<DataPoint>> pts(6);
        std::vector<Store::Run> runs;
        for (int h = 0; h < 3; ++h) {
          const TagSet tags = {{"host", "c400-00" + std::to_string(h)}};
          for (int m = 0; m < 2; ++m) {
            auto& p = pts[static_cast<std::size_t>(2 * h + m)];
            for (int i = 0; i < 5; ++i) {
              p.push_back({kT0 + (90 + 5 * round + i) * util::kMinute,
                           1000.0 * m + 10.0 * h + i});
            }
            runs.push_back({store->series(m == 0 ? "taccstats.cpu.user"
                                                 : "taccstats.mem.used",
                                          tags),
                            p});
          }
        }
        store->put(runs);
      }
    }
    // Crash-style destruction: the puts live in the WALs only.
  }

  // Every new series is defined inline, after its file's checkpoint, and
  // its runs name it by id.
  std::size_t inline_defs = 0;
  std::size_t inline_points = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.path().filename().string().starts_with("wal-")) continue;
    const WalReplay r = replay_wal(entry.path().string());
    EXPECT_TRUE(r.checkpoint_complete);
    EXPECT_FALSE(r.torn_offset.has_value());
    for (std::size_t id = 0; id < r.series.size(); ++id) {
      if (r.series[id].metric != "taccstats.mem.used") continue;
      ++inline_defs;
      EXPECT_EQ(r.series[id].cum_sealed, 0u);
      for (const WalRun& run : r.runs) {
        if (run.series == id) inline_points += run.points.size();
      }
    }
  }
  EXPECT_EQ(inline_defs, 3u);
  EXPECT_EQ(inline_points, 30u);

  for (const std::size_t shards : {std::size_t{4}, std::size_t{1}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    StoreOptions o = durable_options(
        copy_dir(dir, "persist_wal2_reshard_" + std::to_string(shards)));
    o.shards = shards;
    Store r(o);
    EXPECT_EQ(r.num_series(), mem.num_series());
    EXPECT_EQ(r.num_points(), mem.num_points());
    expect_same_results(r, mem);
    Query q;
    q.metric = "taccstats.mem.used";
    q.group_by = {"host"};
    expect_identical(r.query(q), mem.query(q));
  }
}

TEST(TsdbPersist, TierQueriesMatchRawDecode) {
  const std::string dir = fresh_dir("persist_tiers");
  Store mem;  // in-memory control: no tiers at all
  load_sample(mem, 24 * 60);
  StoreOptions o = durable_options(dir);
  o.block_points = 512;
  Store s(o);
  load_sample(s, 24 * 60);
  s.seal_all();
  s.flush();
  // Hour- and 2-hour-bucket Min/Max/Count take the tier fast path on the
  // durable store (buckets are multiples of the 1h tier); Avg/Sum and the
  // NaN-salted series fall back to decode. Either way: byte-identical.
  expect_same_results(s, mem);
  {
    Query q;  // day buckets over a full day, coarsest tier
    q.metric = "taccstats.cpu.user";
    q.group_by = {"host"};
    q.downsample = util::kDay;
    q.downsample_aggregator = Aggregator::Max;
    expect_identical(s.query(q), mem.query(q));
    q.downsample_aggregator = Aggregator::Count;
    expect_identical(s.query(q), mem.query(q));
    q.metric = "taccstats.ib.rx_bytes";  // NaN-salted: tier path must duck
    expect_identical(s.query(q), mem.query(q));
  }
}

// ---- Compaction and retention ------------------------------------------

TEST(TsdbPersist, CompactionMergesWithoutChangingQueryBytes) {
  const std::string dir = fresh_dir("persist_compact");
  Store mem;
  load_sample(mem);
  StoreOptions o = durable_options(dir);
  o.block_points = 16;  // many small blocks to merge
  Store s(o);
  load_sample(s);
  s.seal_all();
  s.flush();
  s.put("taccstats.cpu.user", {{"host", "c400-000"}},
        kT0 + 500 * util::kMinute, 1.0);
  mem.put("taccstats.cpu.user", {{"host", "c400-000"}},
          kT0 + 500 * util::kMinute, 1.0);
  s.seal_all();
  s.flush();  // two segments now
  EXPECT_EQ(s.disk_stats().segment_files, 2u);
  const std::size_t points_before = s.num_points();
  ASSERT_TRUE(s.compact());
  EXPECT_EQ(s.disk_stats().segment_files, 1u);
  EXPECT_EQ(s.num_points(), points_before);
  expect_same_results(s, mem);
  // Nothing left to do: already one segment of merged blocks.
  EXPECT_FALSE(s.compact());
  // And the compacted directory recovers byte-identically.
  s.close();
  Store r = Store::open(dir);
  EXPECT_EQ(r.num_points(), mem.num_points());
  expect_same_results(r, mem);
}

TEST(TsdbPersist, RetentionGhostsServeTiersThenExpire) {
  const std::string dir = fresh_dir("persist_retention");
  Store mem;
  StoreOptions o = durable_options(dir);
  o.shards = 1;
  o.block_points = 60;  // 1-min cadence: one block per hour, hour-aligned
  // Data time spans [0, 8h); the newest point is at 7h59m. The half-hour
  // slack puts each horizon mid-block, so exactly the hour-aligned blocks
  // expire: block 0 is past the tier horizon (dropped), blocks 1-2 are
  // past the raw horizon (ghosted), blocks 3-7 keep raw.
  o.retention["taccstats.cpu."] = {4 * util::kHour + 30 * util::kMinute,
                                   6 * util::kHour + 30 * util::kMinute};
  Store s(o);
  for (int i = 0; i < 8 * 60; ++i) {
    const util::SimTime t = kT0 + i * util::kMinute;
    s.put("taccstats.cpu.user", {{"host", "c400-000"}}, t, 1000.0 + i);
    mem.put("taccstats.cpu.user", {{"host", "c400-000"}}, t, 1000.0 + i);
  }
  s.seal_all();
  s.flush();
  const std::size_t points_before = s.num_points();
  ASSERT_TRUE(s.compact());
  // Block 0's 60 points are gone with it; ghost summaries keep their
  // counts for conservation accounting until the tier horizon.
  EXPECT_EQ(s.num_points(), points_before - 60);
  {
    Query q;  // raw window: decode path, exact vs the full-data control
    q.metric = "taccstats.cpu.user";
    q.start = kT0 + 3 * util::kHour;
    expect_identical(s.query(q), mem.query(q));
  }
  {
    Query q;  // hour-tier from 1h on: ghosts answer from tier entries
    q.metric = "taccstats.cpu.user";
    q.start = kT0 + util::kHour;
    q.downsample = util::kHour;
    q.downsample_aggregator = Aggregator::Max;
    expect_identical(s.query(q), mem.query(q));
    q.downsample_aggregator = Aggregator::Count;
    expect_identical(s.query(q), mem.query(q));
  }
  {
    Query q;  // raw points inside the ghosted window decode to nothing
    q.metric = "taccstats.cpu.user";
    q.start = kT0 + util::kHour;
    q.end = kT0 + 2 * util::kHour;
    const auto res = s.query(q);
    EXPECT_TRUE(res.empty() || res[0].points.empty());
  }
  // The ghosted directory still recovers cleanly.
  s.close();
  Store r(o);
  EXPECT_EQ(r.num_points(), points_before - 60);
  Query q;
  q.metric = "taccstats.cpu.user";
  q.start = kT0 + util::kHour;
  q.downsample = util::kHour;
  q.downsample_aggregator = Aggregator::Max;
  expect_identical(r.query(q), mem.query(q));
}

TEST(TsdbPersist, CompactionDroppingAWholePrefixKeepsCountsExact) {
  // Retention drops one series' whole persisted prefix (its commit slice
  // writes nothing and installs an empty range) while another series keeps
  // its data. Point counts and queries must stay exact through a later
  // put, flush and reopen.
  const std::string dir = fresh_dir("persist_whole_prefix");
  StoreOptions o = durable_options(dir);
  o.block_points = 60;
  // Data time reaches 7h59m; the "old" series ends at 2h, so every one of
  // its blocks is past the 1 h tier horizon.
  o.retention["taccstats.old."] = {0, util::kHour};
  const TagSet tags = {{"host", "c400-000"}};
  Store mem;
  const auto expect_mirrored = [&](const Store& s) {
    EXPECT_EQ(s.num_points(), mem.num_points());
    for (const char* metric : {"taccstats.cpu.user", "taccstats.old.cpu"}) {
      Query q;
      q.metric = metric;
      expect_identical(s.query(q), mem.query(q));
      q.downsample = util::kHour;
      q.downsample_aggregator = Aggregator::Max;
      expect_identical(s.query(q), mem.query(q));
    }
  };
  {
    Store s(o);
    for (int i = 0; i < 8 * 60; ++i) {
      const util::SimTime t = kT0 + i * util::kMinute;
      s.put("taccstats.cpu.user", tags, t, 1000.0 + i);
      mem.put("taccstats.cpu.user", tags, t, 1000.0 + i);
      if (i < 2 * 60) s.put("taccstats.old.cpu", tags, t, 5.0 + i);
    }
    s.seal_all();
    s.flush();
    const std::size_t points_before = s.num_points();
    ASSERT_TRUE(s.compact());
    EXPECT_EQ(s.num_points(), points_before - 2 * 60);
    EXPECT_EQ(s.num_points(), mem.num_points());
    Query old;
    old.metric = "taccstats.old.cpu";
    for (const auto& r : s.query(old)) EXPECT_TRUE(r.points.empty());
    Query kept;
    kept.metric = "taccstats.cpu.user";
    expect_identical(s.query(kept), mem.query(kept));

    // The emptied series takes new data again.
    const util::SimTime t = kT0 + 8 * util::kHour;
    s.put("taccstats.old.cpu", tags, t, 42.0);
    mem.put("taccstats.old.cpu", tags, t, 42.0);
    s.seal_all();
    s.flush();
    const StorageStats st = s.storage_stats();
    EXPECT_EQ(s.num_points(), st.head_points + st.sealed_points);
    EXPECT_EQ(s.num_points(), s.disk_stats().persisted_points);
    expect_mirrored(s);
  }  // no close(): the reopen below recovers from segments + WAL
  Store r(o);
  expect_mirrored(r);
}

// ---- close(), sync modes, stats ----------------------------------------

TEST(TsdbPersist, CloseRejectsMutationsButServesQueries) {
  const std::string dir = fresh_dir("persist_close");
  Store s(durable_options(dir));
  load_sample(s, 30);
  s.close();
  s.close();  // idempotent
  EXPECT_THROW(s.put("taccstats.cpu.user", {{"host", "x"}}, kT0, 1.0),
               std::logic_error);
  EXPECT_THROW(s.seal_all(), std::logic_error);
  EXPECT_THROW(s.flush(), std::logic_error);
  Query q;
  q.metric = "taccstats.cpu.user";
  EXPECT_FALSE(s.query(q).empty());
  EXPECT_GT(s.num_points(), 0u);
}

TEST(TsdbPersist, WalSyncModesProduceIdenticalRecovery) {
  std::vector<Store> reopened;
  for (const WalSync mode :
       {WalSync::Never, WalSync::OnFlush, WalSync::Always}) {
    const std::string dir =
        fresh_dir("persist_sync_" + std::to_string(static_cast<int>(mode)));
    {
      StoreOptions o = durable_options(dir);
      o.wal_sync = mode;
      Store s(o);
      load_sample(s, 45);
      // dtor without close: recovery comes from the WAL alone
    }
    reopened.push_back(Store::open(dir));
  }
  ASSERT_EQ(reopened.size(), 3u);
  expect_same_results(reopened[0], reopened[1]);
  expect_same_results(reopened[1], reopened[2]);
  EXPECT_EQ(reopened[0].num_points(), reopened[2].num_points());
}

TEST(TsdbPersist, DiskStatsAccountForLiveFiles) {
  const std::string dir = fresh_dir("persist_stats");
  StoreOptions o = durable_options(dir);
  o.block_points = 128;
  Store s(o);
  load_sample(s, 12 * 60);
  s.seal_all();
  s.flush();
  const DiskStats ds = s.disk_stats();
  EXPECT_EQ(ds.segment_files, 1u);
  EXPECT_GT(ds.segment_bytes, 0u);
  EXPECT_GT(ds.tier_bytes, 0u);
  EXPECT_LT(ds.tier_bytes, ds.segment_bytes);
  EXPECT_GT(ds.wal_bytes, 0u);  // rotated checkpoint-only generations
  EXPECT_EQ(ds.persisted_points, s.num_points());
  // The primary copy (tiers excluded) must stay within the compression
  // budget the bench gates at 1.44 bytes/point; leave slack here since
  // this workload is tiny and NaN-salted.
  EXPECT_LT(static_cast<double>(ds.primary_bytes()) /
                static_cast<double>(ds.persisted_points),
            8.0);
}

// ---- Golden-file format pins -------------------------------------------
//
// The committed fixtures under tests/data/golden/ pin the current formats
// byte for byte (segment 1, manifest 1, WAL 2). If these tests fail after
// an intentional format change, bump the version constants (and lint
// TS050's fingerprint) and regenerate with
//   TACC_REGEN_GOLDEN=1 ./test_tsdb_persist
// A silent regeneration without a version bump is exactly the bug this
// layer exists to catch, so never do that. tests/data/golden/v1/ keeps the
// fixtures of WAL format 1, which a store must refuse to open.

const char* golden_fixture_dir() {
  return TACC_SOURCE_DIR "/tests/data/golden";
}

/// The golden data: every edge value class the codecs special-case (NaN,
/// +/-Inf, -0.0, denormal, max, exact zero) on series 0, an irregular
/// cadence exercising the dod prefix classes on series 1.
std::vector<DataPoint> golden_points(int which) {
  const double edge[] = {
      0.0,
      -0.0,
      1.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -1234.5678,
      3.0e-9,
  };
  std::vector<DataPoint> pts;
  for (int i = 0; i < 10; ++i) {
    if (which == 0) {
      pts.push_back({kT0 + i * util::kMinute, edge[i]});
    } else {
      pts.push_back({kT0 + i * i * util::kSecond, 1.0e9 + 12345.0 * i});
    }
  }
  return pts;
}

/// The golden store: 1 shard, tiny blocks, two series of golden_points.
void load_golden(Store& s) {
  s.put_batch("golden.metric", {{"host", "c400-000"}, {"unit", "0"}},
              golden_points(0));
  s.put_batch("golden.metric", {{"host", "c400-001"}, {"unit", "1"}},
              golden_points(1));
}

StoreOptions golden_options(const std::string& dir) {
  StoreOptions o;
  o.data_dir = dir;
  o.shards = 1;
  o.block_points = 4;
  return o;
}

std::vector<std::uint8_t> read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(TsdbPersist, GoldenWriterReproducesCommittedBytes) {
  const std::string dir = fresh_dir("persist_golden");
  {
    Store s(golden_options(dir));
    load_golden(s);
    s.seal_all();
    s.flush();
    // One post-flush put so the live WAL generation carries its checkpoint
    // frame followed by one put frame: a run for a checkpointed series,
    // then a new series' inline definition and run.
    const std::vector<DataPoint> old_pts = {{kT0 + util::kHour, 42.0},
                                            {kT0 + util::kHour + 1, -42.0}};
    const std::vector<DataPoint> new_pts = {{kT0 + util::kHour, 7.5}};
    const Store::Run runs[] = {
        {s.series("golden.metric", {{"host", "c400-000"}, {"unit", "0"}}),
         old_pts},
        {s.series("golden.metric", {{"host", "c400-002"}, {"unit", "2"}}),
         new_pts}};
    s.put(runs);
  }
  // Fresh dir: recovery rotates to gen 1, flush to gen 2.
  const char* files[] = {"MANIFEST", "seg-000001.blk", "wal-000-000002.log"};
  const fs::path fixtures(golden_fixture_dir());
  if (std::getenv("TACC_REGEN_GOLDEN") != nullptr) {
    fs::create_directories(fixtures);
    for (const char* f : files) {
      fs::copy_file(fs::path(dir) / f, fixtures / f,
                    fs::copy_options::overwrite_existing);
    }
    GTEST_SKIP() << "regenerated golden fixtures in " << fixtures;
  }
  for (const char* f : files) {
    const auto got = read_bytes(fs::path(dir) / f);
    const auto want = read_bytes(fixtures / f);
    ASSERT_FALSE(want.empty()) << "missing fixture " << f
                               << " — run with TACC_REGEN_GOLDEN=1";
    EXPECT_EQ(got, want)
        << f << ": the writer no longer reproduces the fixture. If the "
        << "format change is intentional, bump the format version (see "
        << "lint TS050) and regenerate with TACC_REGEN_GOLDEN=1.";
  }
}

TEST(TsdbPersist, GoldenReaderDecodesCommittedFixtureExactly) {
  const fs::path fixtures(golden_fixture_dir());
  if (!fs::exists(fixtures / "seg-000001.blk")) {
    GTEST_SKIP() << "fixtures not generated yet";
  }
  // Sorted by (metric, canonical tags): c400-000 first.
  const char* hosts[] = {"c400-000", "c400-001"};
  int i = 0;
  const std::uint64_t file_seq = load_segment(
      (fixtures / "seg-000001.blk").string(), [&](const SegmentSeries& s) {
        ASSERT_LT(i, 2);
        EXPECT_EQ(s.metric, "golden.metric");
        ASSERT_EQ(s.tags.size(), 2u);
        EXPECT_EQ(s.tags[0].first, "host");
        EXPECT_EQ(s.tags[0].second, hosts[i]);
        EXPECT_EQ(s.tags[1].second, std::to_string(i));
        // block_points=4, 10 points, seal_all: blocks of 4+4+2.
        ASSERT_EQ(s.blocks.size(), 3u);
        EXPECT_EQ(s.cum_sealed, 10u);
        std::vector<DataPoint> got;
        for (const auto& blk : s.blocks) {
          EXPECT_TRUE(blk->has_raw());
          EXPECT_FALSE(blk->tiers().empty());
          blk->decode_append(got);
        }
        const auto want = golden_points(i);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t p = 0; p < want.size(); ++p) {
          EXPECT_EQ(got[p].time, want[p].time);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[p].value),
                    std::bit_cast<std::uint64_t>(want[p].value))
              << "series " << i << " point " << p;
        }
        ++i;
      });
  EXPECT_EQ(file_seq, 1u);
  EXPECT_EQ(i, 2);

  const WalReplay wal =
      replay_wal((fixtures / "wal-000-000002.log").string());
  EXPECT_EQ(wal.shard, 0u);
  EXPECT_EQ(wal.gen, 2u);
  EXPECT_TRUE(wal.checkpoint_complete);
  EXPECT_FALSE(wal.torn_offset.has_value());
  // Checkpoint definitions for both (empty-head) series, then the
  // post-flush put's inline definition.
  ASSERT_EQ(wal.series.size(), 3u);
  const char* defined[] = {"c400-000", "c400-001", "c400-002"};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(wal.series[i].metric, "golden.metric");
    EXPECT_EQ(wal.series[i].tags.at("host"), defined[i]);
    EXPECT_EQ(wal.series[i].cum_sealed, i < 2 ? 10u : 0u);
  }
  // Empty checkpoint heads carry no run: only the put's two runs remain.
  ASSERT_EQ(wal.runs.size(), 2u);
  EXPECT_EQ(wal.runs[0].series, 0u);
  ASSERT_EQ(wal.runs[0].points.size(), 2u);
  EXPECT_EQ(wal.runs[0].points[0].time, kT0 + util::kHour);
  EXPECT_EQ(wal.runs[0].points[0].value, 42.0);
  EXPECT_EQ(wal.runs[0].points[1].value, -42.0);
  EXPECT_EQ(wal.runs[1].series, 2u);
  ASSERT_EQ(wal.runs[1].points.size(), 1u);
  EXPECT_EQ(wal.runs[1].points[0].value, 7.5);

  const Manifest m = read_manifest(fixtures.string());
  EXPECT_EQ(m.next_seq, 2u);
  ASSERT_EQ(m.segments.size(), 1u);
  EXPECT_EQ(m.segments[0], 1u);
}

TEST(TsdbPersist, OpenRefusesWalOfAnotherFormatVersion) {
  // The WAL 1 fixtures: a segment, a manifest and a live WAL generation
  // holding two acknowledged points no segment covers.
  const fs::path v1 = fs::path(golden_fixture_dir()) / "v1";
  const std::string dir = fresh_dir("persist_wal_v1");
  std::vector<std::pair<fs::path, std::vector<std::uint8_t>>> before;
  for (const auto& entry : fs::directory_iterator(v1)) {
    const fs::path to = fs::path(dir) / entry.path().filename();
    fs::copy_file(entry.path(), to);
    before.emplace_back(to, read_bytes(to));
  }
  ASSERT_EQ(before.size(), 3u);
  try {
    Store s = Store::open(dir);
    ADD_FAILURE() << "a WAL of format 1 was opened";
  } catch (const WalVersionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
  }
  // Refused before anything was replayed, rotated or swept.
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) {
    ++files;
  }
  EXPECT_EQ(files, before.size());
  for (const auto& [path, bytes] : before) {
    EXPECT_EQ(read_bytes(path), bytes) << path;
  }

  // A header torn at creation still falls back to the previous generation
  // and is swept.
  const std::string torn_dir = fresh_dir("persist_wal_torn_header");
  Store mem;
  load_sample(mem, 20);
  {
    Store s(durable_options(torn_dir));
    load_sample(s, 20);
  }
  const fs::path torn = fs::path(torn_dir) / "wal-000-000099.log";
  std::ofstream(torn, std::ios::binary).write("TSWL", 4);
  Store r = Store::open(torn_dir);
  EXPECT_FALSE(fs::exists(torn));
  EXPECT_EQ(r.num_points(), mem.num_points());
  expect_same_results(r, mem);
}

TEST(TsdbPersist, OpenThrowsCorruptionErrorOnDamagedManifest) {
  const std::string dir = fresh_dir("persist_damaged");
  {
    Store s(durable_options(dir));
    load_sample(s, 10);
    s.close();
  }
  // Flip one byte of the manifest body.
  const fs::path manifest = fs::path(dir) / "MANIFEST";
  auto bytes = read_bytes(manifest);
  ASSERT_GT(bytes.size(), 6u);
  bytes[5] ^= 0x40;
  std::ofstream(manifest, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(Store::open(dir), CorruptionError);
}

TEST(TsdbPersist, SegmentBlockClaimingMoreTiersThanItsBytesIsRefused) {
  // The tier count is read before the block's CRC, so the reader must
  // bound it by the bytes left before sizing anything by it.
  std::vector<std::uint8_t> seg;
  std::vector<std::uint8_t> rec;
  const auto emit = [&] {
    coding::put_u32(rec, util::crc32c(rec.data(), rec.size()));
    seg.insert(seg.end(), rec.begin(), rec.end());
    rec.clear();
  };
  coding::put_u32(rec, kSegmentMagic);
  coding::put_u32(rec, kSegmentFormatVersion);
  coding::put_u64(rec, 1);
  emit();
  rec.push_back(kSegmentSeriesTag);
  put_series_key(rec, "m", TagSet{});
  coding::put_varint(rec, 1);  // cum_sealed
  coding::put_varint(rec, 1);  // n_blocks
  emit();
  rec.push_back(kSegmentBlockTag);
  for (int i = 0; i < 2; ++i) coding::put_varint(rec, 0);  // t_min, span
  coding::put_varint(rec, 1);                               // count
  for (int i = 0; i < 3; ++i) coding::put_u64(rec, 0);     // sum, min, max
  for (int i = 0; i < 2; ++i) coding::put_varint(rec, 0);  // no raw streams
  coding::put_varint(rec, std::uint64_t{1} << 62);          // n_tiers
  emit();
  rec.push_back(kSegmentFooterTag);
  coding::put_u64(rec, 1);
  emit();
  coding::put_u32(seg, kSegmentFooterMagic);

  const fs::path path = fs::path(fresh_dir("persist_tier_count")) / "seg.blk";
  std::ofstream(path, std::ios::binary)
      .write(reinterpret_cast<const char*>(seg.data()),
             static_cast<std::streamsize>(seg.size()));
  int visited = 0;
  EXPECT_THROW(load_segment(path.string(),
                            [&visited](const SegmentSeries&) { ++visited; }),
               CorruptionError);
  EXPECT_EQ(visited, 0);
}

}  // namespace
}  // namespace tacc::tsdb

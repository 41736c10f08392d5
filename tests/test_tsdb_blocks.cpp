// Compressed block tier of the time-series store: codec round trips, the
// compressed-vs-uncompressed equivalence guarantee (same stored points =>
// byte-identical query() results across block sizes, including
// block_points = 1 and "never sealed"), rollup-vs-decode equivalence for
// every aggregator, rate semantics across seal boundaries, query edge
// cases over sealed data, and golden digests of the exact query bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "tsdb/block.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"

namespace tacc::tsdb {
namespace {

constexpr util::SimTime kT0 = 1451606400LL * util::kSecond;

/// The pre-block-tier layout: points stay raw in the head forever.
StoreOptions never_sealed_opts() {
  StoreOptions o;
  o.shards = 16;
  o.block_points = 0;
  return o;
}

/// Exact equality of query outputs (tags, times, and bit-equal values).
void expect_identical(const std::vector<SeriesResult>& a,
                      const std::vector<SeriesResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].group_tags, b[i].group_tags);
    ASSERT_EQ(a[i].points.size(), b[i].points.size());
    for (std::size_t p = 0; p < a[i].points.size(); ++p) {
      EXPECT_EQ(a[i].points[p].time, b[i].points[p].time);
      // Bit comparison, not EXPECT_DOUBLE_EQ or even operator==: the
      // contract is bit-identical, including NaN payloads and zero signs.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].points[p].value),
                std::bit_cast<std::uint64_t>(b[i].points[p].value))
          << "series " << i << " point " << p << ": "
          << a[i].points[p].value << " vs " << b[i].points[p].value;
    }
  }
}

// ---- Codec round trips -------------------------------------------------

TEST(TsdbBlocks, CodecRoundTripsRegularCounter) {
  std::vector<DataPoint> pts;
  double v = 1.0e9;
  for (int i = 0; i < 1024; ++i) {
    v += 12345.0 + i % 7;
    pts.push_back({kT0 + i * 10 * util::kMinute, v});
  }
  const auto block = SealedBlock::seal(pts);
  std::vector<DataPoint> back;
  block->decode_append(back);
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(back[i].time, pts[i].time);
    EXPECT_EQ(back[i].value, pts[i].value);
  }
  // The point of the exercise: a monotonic counter at a regular cadence
  // must land far below the 16 raw bytes per point.
  EXPECT_LT(static_cast<double>(block->payload_bytes()) /
                static_cast<double>(pts.size()),
            4.0);
}

TEST(TsdbBlocks, CodecRoundTripsHostileValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<DataPoint> pts = {
      {kT0, 0.0},
      {kT0 + 1, -0.0},
      {kT0 + 2, nan},
      {kT0 + 3, inf},
      {kT0 + 4, -inf},
      {kT0 + 5, denorm},
      {kT0 + 5, 1.0},  // duplicate timestamp
      {kT0 + 1000000007LL, -1.5e-300},
      {kT0 + 1000000008LL, 1.5e300},
  };
  const auto block = SealedBlock::seal(pts);
  std::vector<DataPoint> back;
  block->decode_append(back);
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(back[i].time, pts[i].time);
    // Bit-exact including NaN payloads and signed zero.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i].value),
              std::bit_cast<std::uint64_t>(pts[i].value));
  }
}

TEST(TsdbBlocks, CodecRoundTripsRandomBits) {
  util::Rng rng("tsdb.block.bits", 7);
  std::vector<DataPoint> pts;
  util::SimTime t = kT0;
  for (int i = 0; i < 512; ++i) {
    t += static_cast<util::SimTime>(rng.uniform_int(0, 3600)) * util::kSecond;
    pts.push_back({t, std::bit_cast<double>(rng())});
  }
  const auto block = SealedBlock::seal(pts);
  std::vector<DataPoint> back;
  block->decode_append(back);
  ASSERT_EQ(back.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(back[i].time, pts[i].time);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i].value),
              std::bit_cast<std::uint64_t>(pts[i].value));
  }
}

TEST(TsdbBlocks, SummaryMatchesAggregateFolds) {
  std::vector<DataPoint> pts;
  std::vector<double> vals;
  util::Rng rng("tsdb.block.summary", 1);
  for (int i = 0; i < 300; ++i) {
    const double v = rng.normal(50.0, 20.0);
    pts.push_back({kT0 + i * util::kMinute, v});
    vals.push_back(v);
  }
  const auto block = SealedBlock::seal(pts);
  const BlockSummary& s = block->summary();
  EXPECT_EQ(s.t_min, pts.front().time);
  EXPECT_EQ(s.t_max, pts.back().time);
  EXPECT_EQ(s.count, 300u);
  EXPECT_EQ(s.sum, aggregate(Aggregator::Sum, vals));
  EXPECT_EQ(s.min, aggregate(Aggregator::Min, vals));
  EXPECT_EQ(s.max, aggregate(Aggregator::Max, vals));
}

// ---- Store equivalence across block sizes ------------------------------

/// A put_batch call replayed identically into every store under test, so
/// the append sequences (and therefore tie-breaking among equal
/// timestamps) are the same everywhere.
struct Append {
  std::string metric;
  TagSet tags;
  std::vector<DataPoint> points;
};

std::vector<Store> build_stores(const std::vector<Append>& appends,
                                const std::vector<std::size_t>& block_sizes,
                                bool seal) {
  std::vector<Store> stores;
  stores.reserve(block_sizes.size());
  for (const std::size_t bp : block_sizes) {
    StoreOptions opts;
    opts.block_points = bp;
    Store s(opts);
    for (const auto& a : appends) s.put_batch(a.metric, a.tags, a.points);
    if (seal) s.seal_all();
    stores.push_back(std::move(s));
  }
  return stores;
}

std::vector<Query> probe_queries() {
  std::vector<Query> qs;
  Query sum;
  sum.metric = "m";
  sum.aggregator = Aggregator::Sum;
  qs.push_back(sum);

  Query grouped = sum;
  grouped.group_by = {"host"};
  grouped.downsample = 5 * util::kMinute;
  qs.push_back(grouped);

  Query rated = sum;
  rated.rate = true;
  rated.aggregator = Aggregator::Avg;
  qs.push_back(rated);

  Query coarse = sum;
  coarse.downsample = util::kHour;
  coarse.downsample_aggregator = Aggregator::Max;
  qs.push_back(coarse);

  Query whole = sum;
  whole.downsample = util::kDay;  // covers whole blocks: rollup territory
  whole.downsample_aggregator = Aggregator::Avg;
  qs.push_back(whole);

  Query ranged = sum;
  ranged.start = kT0 + 13 * util::kMinute;
  ranged.end = kT0 + 200 * util::kMinute;
  ranged.downsample = 10 * util::kMinute;
  qs.push_back(ranged);
  return qs;
}

TEST(TsdbBlocks, QueryEquivalenceAcrossBlockSizes) {
  std::vector<Append> appends;
  for (int h = 0; h < 4; ++h) {
    Append a;
    a.metric = "m";
    a.tags = {{"host", "h" + std::to_string(h)},
              {"user", h % 2 == 0 ? "storm" : "victim"}};
    double v = 100.0 * h;
    for (int i = 0; i < 700; ++i) {
      v += 1.0 + (i % 5);
      if (i == 350) v = 0.0;  // counter reset mid-stream
      a.points.push_back({kT0 + i * util::kMinute, v});
    }
    appends.push_back(std::move(a));
  }

  // block_points = 0 never auto-seals: with seal = false it is the raw,
  // uncompressed reference everything else must match bit for bit.
  const std::vector<std::size_t> sizes = {0, 1, 4, 7, 64, 300, 1024};
  for (const bool seal : {false, true}) {
    auto stores = build_stores(appends, sizes, seal);
    const Store& reference = stores.front();
    for (auto q : probe_queries()) {
      const auto want = reference.query(q);
      for (std::size_t i = 1; i < stores.size(); ++i) {
        expect_identical(want, stores[i].query(q));
      }
    }
  }
}

TEST(TsdbBlocks, EmptyTimeRangeOverSealedBlocks) {
  StoreOptions opts;
  opts.block_points = 16;
  Store sealed(opts);
  Store raw(never_sealed_opts());
  for (int i = 0; i < 100; ++i) {
    sealed.put("m", {{"host", "h"}}, kT0 + i * util::kMinute, i * 2.0);
    raw.put("m", {{"host", "h"}}, kT0 + i * util::kMinute, i * 2.0);
  }
  Query q;
  q.metric = "m";
  q.start = kT0 + util::kDay;  // entirely after the data
  q.end = kT0 + 2 * util::kDay;
  const auto got = sealed.query(q);
  expect_identical(raw.query(q), got);
  for (const auto& r : got) EXPECT_TRUE(r.points.empty());
}

TEST(TsdbBlocks, RangeInsideOneBlock) {
  StoreOptions opts;
  opts.block_points = 64;
  Store sealed(opts);
  Store raw(never_sealed_opts());
  for (int i = 0; i < 256; ++i) {
    sealed.put("m", {}, kT0 + i * util::kMinute, std::sin(i * 0.1));
    raw.put("m", {}, kT0 + i * util::kMinute, std::sin(i * 0.1));
  }
  Query q;
  q.metric = "m";
  // [70, 90) minutes: strictly inside the second 64-point block.
  q.start = kT0 + 70 * util::kMinute;
  q.end = kT0 + 90 * util::kMinute;
  for (const auto ds : {util::SimTime{0}, 5 * util::kMinute}) {
    q.downsample = ds;
    const auto got = sealed.query(q);
    expect_identical(raw.query(q), got);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_FALSE(got[0].points.empty());
  }
}

TEST(TsdbBlocks, RangeStraddlingHeadAndSealed) {
  StoreOptions opts;
  opts.block_points = 100;
  Store sealed(opts);
  Store raw(never_sealed_opts());
  // 130 points: one sealed block of 100 + a 30-point head.
  for (int i = 0; i < 130; ++i) {
    sealed.put("m", {}, kT0 + i * util::kMinute, 3.0 * i);
    raw.put("m", {}, kT0 + i * util::kMinute, 3.0 * i);
  }
  Query q;
  q.metric = "m";
  q.start = kT0 + 90 * util::kMinute;  // last 10 sealed + all head points
  q.end = kT0 + 125 * util::kMinute;
  for (const auto ds : {util::SimTime{0}, 10 * util::kMinute}) {
    q.downsample = ds;
    const auto got = sealed.query(q);
    expect_identical(raw.query(q), got);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_FALSE(got[0].points.empty());
  }
}

TEST(TsdbBlocks, OutOfOrderIngestThenSeal) {
  // Writes jump backwards across what will become seal boundaries, so
  // sealed blocks overlap in time and the store must stable-merge them.
  std::vector<Append> appends;
  Append a;
  a.metric = "m";
  for (int i = 0; i < 300; ++i) {
    const int scrambled = (i * 37) % 300;
    a.points.push_back(
        {kT0 + scrambled * util::kMinute, static_cast<double>(scrambled)});
  }
  // Duplicate timestamps with distinct values: stability is observable.
  for (int i = 0; i < 50; ++i) {
    a.points.push_back({kT0 + 10 * util::kMinute, 1000.0 + i});
  }
  appends.push_back(std::move(a));

  const std::vector<std::size_t> sizes = {0, 1, 32, 128};
  for (const bool seal : {false, true}) {
    auto stores = build_stores(appends, sizes, seal);
    for (auto q : probe_queries()) {
      q.group_by.clear();
      const auto want = stores.front().query(q);
      for (std::size_t i = 1; i < stores.size(); ++i) {
        expect_identical(want, stores[i].query(q));
      }
    }
  }
}

// ---- Rate semantics at seal boundaries (regression) --------------------

TEST(TsdbBlocks, CounterResetOnSealBoundaryClampsToZero) {
  // 8 points, block_points = 4: the counter resets exactly at the point
  // that opens the second block, so the negative delta spans the seal
  // boundary. rate() must clamp it to 0 — the same answer the unsealed
  // store gives.
  const std::vector<double> counter = {100, 200, 300, 400,  // block 1
                                       5,   105, 205, 305};  // reset at seam
  StoreOptions opts;
  opts.block_points = 4;
  Store sealed(opts);
  Store raw(never_sealed_opts());
  for (std::size_t i = 0; i < counter.size(); ++i) {
    const util::SimTime t = kT0 + static_cast<util::SimTime>(i) * util::kMinute;
    sealed.put("ctr", {}, t, counter[i]);
    raw.put("ctr", {}, t, counter[i]);
  }
  ASSERT_EQ(sealed.storage_stats().sealed_blocks, 2u);

  Query q;
  q.metric = "ctr";
  q.rate = true;
  const auto got = sealed.query(q);
  expect_identical(raw.query(q), got);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].points.size(), 7u);
  // Deltas of 100 over 60 s everywhere except the reset, which clamps.
  for (std::size_t i = 0; i < got[0].points.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[0].points[i].value, i == 3 ? 0.0 : 100.0 / 60.0)
        << "rate point " << i;
  }
}

// ---- Rollup vs decode, property-style ----------------------------------

TEST(TsdbBlocks, RollupVsDecodeEquivalenceSeeded) {
  // Random series shapes and block sizes; downsample buckets sized so
  // some cover whole blocks (rollup fast path) and some split them
  // (decode fallback). Every aggregator must match the never-sealed
  // reference bit for bit either way.
  util::Rng rng("tsdb.rollup.prop", 2016);
  for (int round = 0; round < 12; ++round) {
    std::vector<Append> appends;
    const int series = static_cast<int>(rng.uniform_int(1, 4));
    for (int s = 0; s < series; ++s) {
      Append a;
      a.metric = "m";
      a.tags = {{"host", "h" + std::to_string(s)}};
      const int n = static_cast<int>(rng.uniform_int(1, 600));
      util::SimTime t = kT0;
      double v = rng.uniform(0.0, 1e6);
      for (int i = 0; i < n; ++i) {
        t += static_cast<util::SimTime>(rng.uniform_int(1, 600)) *
             util::kSecond;
        v = rng.bernoulli(0.05) ? rng.uniform(0.0, 1e6)
                                : v + rng.uniform(0.0, 1e4);
        a.points.push_back({t, v});
      }
      appends.push_back(std::move(a));
    }

    const std::vector<std::size_t> sizes = {
        0, static_cast<std::size_t>(rng.uniform_int(1, 64)),
        static_cast<std::size_t>(rng.uniform_int(64, 512))};
    auto stores = build_stores(appends, sizes, /*seal=*/true);

    for (const auto agg : {Aggregator::Sum, Aggregator::Avg, Aggregator::Min,
                           Aggregator::Max, Aggregator::Count}) {
      Query q;
      q.metric = "m";
      q.group_by = {"host"};
      q.downsample_aggregator = agg;
      q.aggregator = agg;
      for (const util::SimTime ds :
           {util::kMinute, util::kHour, util::kDay, 7 * util::kDay}) {
        q.downsample = ds;
        SCOPED_TRACE("round " + std::to_string(round) + " ds " +
                     std::to_string(ds) + " agg " +
                     std::to_string(static_cast<int>(agg)));
        const auto want = stores.front().query(q);
        for (std::size_t i = 1; i < stores.size(); ++i) {
          expect_identical(want, stores[i].query(q));
        }
      }
    }
  }
}

TEST(TsdbBlocks, FoldRollupWithNaNsMatchesDecode) {
  // Min/Max summaries may join a bucket's running fold only when they are
  // not NaN: a decode fold skips a mid-stream NaN, while folding a NaN
  // summary would absorb the whole bucket. Sprinkle NaNs (including at
  // block fronts, where the summary itself goes NaN) and require every
  // sealed layout to match the never-sealed reference bit for bit.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Append> appends;
  Append a;
  a.metric = "m";
  a.tags = {{"host", "h"}};
  for (int i = 0; i < 500; ++i) {
    // NaN at i % 50 == 0 hits block fronts for block_points = 50 and
    // mid-block positions for the other sizes.
    const double v = i % 50 == 0 ? nan : 1000.0 - i;
    a.points.push_back({kT0 + i * util::kMinute, v});
  }
  appends.push_back(std::move(a));

  const std::vector<std::size_t> sizes = {0, 1, 13, 50, 128};
  auto stores = build_stores(appends, sizes, /*seal=*/true);
  for (const auto agg :
       {Aggregator::Min, Aggregator::Max, Aggregator::Count}) {
    Query q;
    q.metric = "m";
    q.downsample_aggregator = agg;
    q.aggregator = agg;
    for (const util::SimTime ds : {util::kHour, util::kDay}) {
      q.downsample = ds;
      SCOPED_TRACE("agg " + std::to_string(static_cast<int>(agg)) + " ds " +
                   std::to_string(ds));
      const auto want = stores.front().query(q);
      for (std::size_t i = 1; i < stores.size(); ++i) {
        expect_identical(want, stores[i].query(q));
      }
    }
  }
}

// ---- Storage accounting ------------------------------------------------

TEST(TsdbBlocks, StorageStatsTrackTiers) {
  StoreOptions opts;
  opts.block_points = 128;
  Store s(opts);
  double v = 0.0;
  for (int i = 0; i < 1000; ++i) {
    v += 17.0;
    s.put("m", {{"host", "h"}}, kT0 + i * 10 * util::kMinute, v);
  }
  auto st = s.storage_stats();
  EXPECT_EQ(st.sealed_blocks, 7u);  // 7 * 128 = 896 sealed
  EXPECT_EQ(st.sealed_points, 896u);
  EXPECT_EQ(st.head_points, 104u);
  EXPECT_EQ(st.sealed_points + st.head_points, s.num_points());
  EXPECT_GT(st.sealed_bytes, 0u);
  // Compressed far below the 16 raw bytes per point.
  EXPECT_LT(static_cast<double>(st.sealed_bytes) /
                static_cast<double>(st.sealed_points),
            4.0);

  s.seal_all();
  st = s.storage_stats();
  EXPECT_EQ(st.head_points, 0u);
  EXPECT_EQ(st.sealed_points, 1000u);
  EXPECT_EQ(st.sealed_blocks, 8u);
  EXPECT_EQ(s.num_points(), 1000u);
}

// ---- Golden query bytes ------------------------------------------------
//
// The equivalence tests above compare stores of one build with each other,
// so a change to the query walk that moves every layout alike would pass
// them. These digests pin the exact bytes (time and the double's bit
// pattern) of a query matrix to the values the previous query walk
// produced, for a never-sealed, a sealed in-memory and a flushed durable
// (tiered) store.

/// The golden data, replayed into every store in this order:
///  * c{host=a}: an ordered counter with a reset, a repeated timestamp
///    inside a block and one across a seal boundary (16-point blocks
///    split it into 9 blocks and an 8-point head);
///  * c{host=b}: a counter written out of order, so its sealed blocks
///    overlap, then rewritten at every tenth minute with lower values:
///    repeated timestamps whose order only a stable merge keeps;
///  * g{host=a}, g{host=b}: gauges, including negative values.
std::vector<Append> golden_appends() {
  std::vector<Append> out;
  Append a{"c", {{"host", "a"}}, {}};
  double v = 1.0e6;
  for (int i = 0; i < 150; ++i) {
    v = i == 70 ? 42.0 : v + 1000.0 + (i % 7) * 13.5;
    const util::SimTime t = kT0 + i * util::kMinute;
    a.points.push_back({t, v});
    // Append positions 41 (inside block 2) and 96 (first of block 6).
    if (i == 40 || i == 94) a.points.push_back({t, v + 500.0});
  }
  out.push_back(std::move(a));

  Append b{"c", {{"host", "b"}}, {}};
  for (int k = 0; k < 120; ++k) {
    const int m = (k * 37) % 120;
    b.points.push_back(
        {kT0 + 30 * util::kSecond + m * util::kMinute, 5000.0 + m * 777.0});
  }
  for (int m = 0; m < 120; m += 10) {
    b.points.push_back({kT0 + 30 * util::kSecond + m * util::kMinute, 1.0 + m});
  }
  out.push_back(std::move(b));

  for (int h = 0; h < 2; ++h) {
    Append g{"g", {{"host", h == 0 ? "a" : "b"}}, {}};
    for (int i = 0; i < 130; ++i) {
      const util::SimTime t =
          kT0 + 15 * util::kSecond + i * (h + 1) * util::kMinute;
      g.points.push_back({t, ((i * 7919) % 101) - 50.5 + i * 0.25});
    }
    out.push_back(std::move(g));
  }
  return out;
}

/// Every query of the matrix, rendered exactly: one header line per query,
/// then per group its tags and one "time bits" line per point.
std::string render_golden(const Store& s) {
  struct Range {
    util::SimTime start, end;
  };
  const Range ranges[] = {
      {0, 0},                                                // unbounded
      {kT0 + 21 * util::kMinute, kT0 + 100 * util::kMinute},  // mid-block
      {kT0 - util::kHour, kT0 + 50 * util::kMinute},  // before the first
      // c{host=a}'s blocks 3 to 6 exactly (append positions 48 to 111).
      {kT0 + 47 * util::kMinute, kT0 + 110 * util::kMinute},
  };
  std::string out;
  char buf[64];
  for (const char* metric : {"c", "g"}) {
    for (const bool rate : {false, true}) {
      for (const util::SimTime ds :
           {util::SimTime{0}, 7 * util::kMinute, 10 * util::kMinute,
            util::kHour}) {
        for (const auto agg : {Aggregator::Sum, Aggregator::Avg,
                               Aggregator::Min, Aggregator::Max,
                               Aggregator::Count}) {
          for (const bool grouped : {false, true}) {
            for (const Range& r : ranges) {
              Query q;
              q.metric = metric;
              q.rate = rate;
              q.downsample = ds;
              q.downsample_aggregator = agg;
              if (grouped) q.group_by = {"host"};
              q.start = r.start;
              q.end = r.end;
              std::snprintf(buf, sizeof buf, "%s %d %lld %d %d %lld %lld\n",
                            metric, rate, static_cast<long long>(ds),
                            static_cast<int>(agg), grouped,
                            static_cast<long long>(r.start),
                            static_cast<long long>(r.end));
              out += buf;
              for (const auto& series : s.query(q)) {
                for (const auto& [k, tv] : series.group_tags) {
                  out += k + "=" + tv + "\n";
                }
                for (const auto& p : series.points) {
                  std::snprintf(
                      buf, sizeof buf, "%lld %016llx\n",
                      static_cast<long long>(p.time),
                      static_cast<unsigned long long>(
                          std::bit_cast<std::uint64_t>(p.value)));
                  out += buf;
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

/// Taken from the previous query walk, three runs, every store alike.
constexpr const char* kGoldenDigest = "bbcece529475eaec";

std::string golden_digest(const Store& s) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(util::fnv1a(render_golden(s))));
  return buf;
}

void put_golden(Store& s) {
  for (const auto& a : golden_appends()) {
    s.put_batch(a.metric, a.tags, a.points);
  }
}

TEST(TsdbQueryGolden, NeverSealedStore) {
  Store s(never_sealed_opts());
  put_golden(s);
  ASSERT_EQ(s.storage_stats().sealed_blocks, 0u);
  EXPECT_EQ(golden_digest(s), kGoldenDigest);
}

TEST(TsdbQueryGolden, SealedInMemoryStore) {
  StoreOptions o;
  o.block_points = 16;
  Store s(o);
  put_golden(s);
  ASSERT_EQ(s.storage_stats().head_points, 8u + 4u + 2u + 2u);
  EXPECT_EQ(golden_digest(s), kGoldenDigest);
}

TEST(TsdbQueryGolden, FlushedDurableStore) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "tsdb_query_golden";
  std::filesystem::remove_all(dir);
  StoreOptions o;
  o.data_dir = dir.string();
  o.block_points = 16;
  Store s(o);
  put_golden(s);
  s.flush();
  ASSERT_GT(s.disk_stats().tier_bytes, 0u);
  EXPECT_EQ(golden_digest(s), kGoldenDigest);
  s.close();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tacc::tsdb

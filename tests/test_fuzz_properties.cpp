// Robustness and cross-module property tests: the raw-file parser must
// never crash on corrupted input (the consumer faces arbitrary broker
// bytes), the TSDB's on-disk readers must detect any damage rather than
// return wrong points, and several algebraic invariants must hold across
// modules.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "collect/registry.hpp"
#include "simhw/node.hpp"
#include "tsdb/blockfile.hpp"
#include "tsdb/store.hpp"
#include "tsdb/wal.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/engine.hpp"

namespace tacc {
namespace {

std::string sample_chunk() {
  simhw::NodeConfig nc;
  nc.topology = simhw::Topology{1, 2, false};
  simhw::Node node(nc);
  collect::HostSampler sampler(node);
  auto log = sampler.make_log();
  log.records.push_back(sampler.sample(1451606400LL * util::kSecond, {1},
                                       "begin"));
  return log.serialize();
}

TEST(FuzzParse, RandomMutationsNeverCrash) {
  const std::string base = sample_chunk();
  util::Rng rng("fuzz.mutate", 99);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = base;
    const int mutations = static_cast<int>(rng.uniform_int(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 3)) {
        case 0:
          text[pos] = static_cast<char>(rng.uniform_int(32, 126));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        case 2:
          text.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
          break;
        default:
          text[pos] = '\n';
          break;
      }
    }
    try {
      const auto log = collect::HostLog::parse(text);
      ++parsed;
      (void)log;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    // Any other exception type (or a crash) fails the test.
  }
  EXPECT_EQ(parsed + rejected, 500);
  EXPECT_GT(rejected, 0);  // mutations do get caught
}

TEST(FuzzParse, RandomGarbageNeverCrashes) {
  util::Rng rng("fuzz.garbage", 7);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int len = static_cast<int>(rng.uniform_int(0, 2000));
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>(rng.uniform_int(1, 255));
    }
    try {
      (void)collect::HostLog::parse(text);
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

TEST(FuzzParse, TruncationsNeverCrash) {
  const std::string base = sample_chunk();
  for (std::size_t cut = 0; cut < base.size(); cut += 7) {
    try {
      (void)collect::HostLog::parse(base.substr(0, cut));
    } catch (const std::invalid_argument&) {
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// On-disk format robustness (segment / WAL / manifest readers).
//
// The contract under arbitrary damage: a reader either returns exactly
// the bytes the writer produced (for the WAL, an exact *prefix* of the
// written records) or throws CorruptionError carrying an in-bounds
// offset. It never crashes and never returns wrong points. Every
// structural unit carries a CRC32C, whose (x+1) polynomial factor
// detects all 1-3 bit errors — so the seeded flips below must all be
// caught, and any "accepted" mutant must decode identically.

namespace fsp = std::filesystem;

std::string persist_fresh_dir(const std::string& name) {
  const fsp::path dir = fsp::path(::testing::TempDir()) / name;
  fsp::remove_all(dir);
  fsp::create_directories(dir);
  return dir.string();
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct FlatSeries {
  std::string metric;
  tsdb::TagSet tags;
  std::uint64_t cum_sealed = 0;
  std::vector<tsdb::DataPoint> points;
};

/// Loads a segment, appending each series the reader visits to `out`,
/// decoded. On a CorruptionError the series visited before it stay.
void flatten_segment(const std::string& path, std::vector<FlatSeries>& out) {
  (void)tsdb::load_segment(path, [&out](const tsdb::SegmentSeries& s) {
    FlatSeries& f = out.emplace_back();
    f.metric = s.metric;
    for (const auto& [k, v] : s.tags) f.tags.emplace(k, v);
    f.cum_sealed = s.cum_sealed;
    for (const auto& b : s.blocks) b->decode_append(f.points);
  });
}

void expect_points_eq(const std::vector<tsdb::DataPoint>& a,
                      const std::vector<tsdb::DataPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].value),
              std::bit_cast<std::uint64_t>(b[i].value));
  }
}

/// `got` is an exact prefix of the clean segment's series `want`: the
/// reader never hands out a series it would not return from a clean file.
void expect_segment_prefix(const std::vector<FlatSeries>& got,
                           const std::vector<FlatSeries>& want) {
  ASSERT_LE(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].metric, want[i].metric);
    EXPECT_EQ(got[i].tags, want[i].tags);
    EXPECT_EQ(got[i].cum_sealed, want[i].cum_sealed);
    expect_points_eq(got[i].points, want[i].points);
  }
}

/// `got` is an exact prefix of the clean replay `want`: the same series
/// definitions, and the same runs naming them, in order.
void expect_wal_prefix(const tsdb::WalReplay& got,
                       const tsdb::WalReplay& want) {
  ASSERT_LE(got.series.size(), want.series.size());
  for (std::size_t i = 0; i < got.series.size(); ++i) {
    EXPECT_EQ(got.series[i].metric, want.series[i].metric);
    EXPECT_EQ(got.series[i].tags, want.series[i].tags);
    EXPECT_EQ(got.series[i].cum_sealed, want.series[i].cum_sealed);
  }
  ASSERT_LE(got.runs.size(), want.runs.size());
  for (std::size_t i = 0; i < got.runs.size(); ++i) {
    ASSERT_LT(got.runs[i].series, got.series.size());
    EXPECT_EQ(got.runs[i].series, want.runs[i].series);
    expect_points_eq(got.runs[i].points, want.runs[i].points);
  }
}

/// A real store directory: one flushed segment, one live WAL generation
/// whose checkpoint is followed by put frames (one of them defining a new
/// series inline), and a manifest — plus the clean decode of each, the
/// ground truth the mutants are judged against.
struct PersistFixture {
  std::string dir;
  std::string segment_path;
  std::string wal_path;
  std::vector<FlatSeries> clean_series;
  tsdb::WalReplay clean_wal;
  tsdb::Manifest clean_manifest;
};

PersistFixture build_persist_fixture(const std::string& name) {
  PersistFixture fx;
  fx.dir = persist_fresh_dir(name);
  tsdb::StoreOptions o;
  o.data_dir = fx.dir;
  o.shards = 1;
  o.block_points = 16;
  {
    tsdb::Store s(o);
    util::Rng rng("fuzz.persist", 4242);
    constexpr util::SimTime kT0 = 1451606400LL * util::kSecond;
    const auto salted = [&](int i) {
      switch (i % 37) {
        case 0:
          return std::numeric_limits<double>::quiet_NaN();
        case 1:
          return -0.0;
        case 2:
          return std::numeric_limits<double>::infinity();
        default:
          return rng.uniform(-1.0e6, 1.0e6);
      }
    };
    for (const char* host : {"c400-000", "c400-001"}) {
      std::vector<tsdb::DataPoint> pts;
      for (int i = 0; i < 120; ++i) {
        pts.push_back({kT0 + i * util::kMinute, salted(i)});
      }
      s.put_batch("taccstats.cpu.user", {{"host", host}}, pts);
    }
    s.seal_all();
    s.flush();
    // Post-flush puts land as put frames in the rotated WAL; c400-002 is
    // new, so its first frame defines it inline.
    for (const char* host : {"c400-000", "c400-001", "c400-002"}) {
      std::vector<tsdb::DataPoint> pts;
      for (int i = 120; i < 160; ++i) {
        pts.push_back({kT0 + i * util::kMinute, salted(i)});
      }
      s.put_batch("taccstats.cpu.user", {{"host", host}}, pts);
      s.put_batch("taccstats.cpu.user", {{"host", host}},
                  std::span(pts).first(3));
    }
    // Crash-style destruction: the WAL keeps its put tail.
  }
  for (const auto& entry : fsp::directory_iterator(fx.dir)) {
    const std::string fn = entry.path().filename().string();
    if (fn.starts_with("seg-")) fx.segment_path = entry.path().string();
    if (fn.starts_with("wal-")) fx.wal_path = entry.path().string();
  }
  EXPECT_FALSE(fx.segment_path.empty());
  EXPECT_FALSE(fx.wal_path.empty());
  flatten_segment(fx.segment_path, fx.clean_series);
  fx.clean_wal = tsdb::replay_wal(fx.wal_path);
  fx.clean_manifest = tsdb::read_manifest(fx.dir);
  EXPECT_EQ(fx.clean_series.size(), 2u);
  EXPECT_EQ(fx.clean_wal.series.size(), 3u);  // 2 checkpointed, 1 inline
  EXPECT_EQ(fx.clean_wal.runs.size(), 6u);    // 2 puts per host
  EXPECT_TRUE(fx.clean_wal.checkpoint_complete);
  return fx;
}

TEST(FuzzPersist, SegmentBitFlipsNeverCrashAndNeverLie) {
  const PersistFixture fx =
      build_persist_fixture("fuzz_persist_seg_flip");
  const std::string clean = read_bytes(fx.segment_path);
  ASSERT_GT(clean.size(), 64u);
  const std::string mutant = fx.dir + "/mutant.blk";
  util::Rng rng("fuzz.seg.flip", 11);
  int detected = 0;
  for (int trial = 0; trial < 250; ++trial) {
    std::string bytes = clean;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
    }
    write_bytes(mutant, bytes);
    std::vector<FlatSeries> flat;
    try {
      flatten_segment(mutant, flat);
      // Accepted despite flipped bits: only legal if the decode is
      // still exactly the original data (it never lies).
      EXPECT_EQ(flat.size(), fx.clean_series.size());
    } catch (const tsdb::CorruptionError& e) {
      ++detected;
      EXPECT_LE(e.offset(), bytes.size()) << "damage offset out of bounds";
    }
    // Any other exception type (or a crash) fails the test. Accepted or
    // not, what was visited is the clean file's series, in order.
    expect_segment_prefix(flat, fx.clean_series);
  }
  EXPECT_GT(detected, 0);
}

TEST(FuzzPersist, SegmentTruncationsAlwaysDetected) {
  const PersistFixture fx =
      build_persist_fixture("fuzz_persist_seg_trunc");
  const std::string clean = read_bytes(fx.segment_path);
  const std::string mutant = fx.dir + "/mutant.blk";
  // Every proper prefix is missing the footer commit marker: the reader
  // must refuse it — a torn segment write may never surface as data.
  for (std::size_t cut = 0; cut < clean.size();
       cut += (cut < 64 ? 1 : 7)) {
    write_bytes(mutant, clean.substr(0, cut));
    std::vector<FlatSeries> flat;
    try {
      flatten_segment(mutant, flat);
      ADD_FAILURE() << "truncated segment accepted at cut " << cut;
    } catch (const tsdb::CorruptionError& e) {
      EXPECT_LE(e.offset(), clean.size()) << "cut " << cut;
    }
    expect_segment_prefix(flat, fx.clean_series);
  }
}

TEST(FuzzPersist, WalDamageYieldsExactReplayPrefix) {
  const PersistFixture fx = build_persist_fixture("fuzz_persist_wal");
  const std::string clean = read_bytes(fx.wal_path);
  ASSERT_GT(clean.size(), 32u);
  constexpr std::size_t kHeaderSize = 24;  // magic|version|shard|gen|crc
  const std::string mutant = fx.dir + "/mutant.log";
  util::Rng rng("fuzz.wal.flip", 13);
  int torn = 0;
  for (int trial = 0; trial < 250; ++trial) {
    std::string bytes = clean;
    std::size_t first_damage = bytes.size();
    bool truncated = false;
    if (rng.uniform_int(0, 3) == 0) {
      truncated = true;
      first_damage = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes.resize(first_damage);
    } else {
      const int flips = static_cast<int>(rng.uniform_int(1, 3));
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
        bytes[pos] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
        first_damage = std::min(first_damage, pos);
      }
    }
    write_bytes(mutant, bytes);
    try {
      const tsdb::WalReplay r = tsdb::replay_wal(mutant);
      // Whatever survives must be an exact prefix of the clean replay: a
      // replayed run is an acknowledged put, and acknowledged puts are
      // never reordered or altered by damage behind them.
      expect_wal_prefix(r, fx.clean_wal);
      if (r.torn_offset.has_value()) {
        ++torn;
        EXPECT_LE(*r.torn_offset, bytes.size());
      } else if (!truncated) {
        // No reported tear from bit flips alone: every frame validated,
        // so nothing may be missing. (A truncation cut exactly on a
        // frame boundary is indistinguishable from a shorter clean
        // file, so it legitimately reports no tear.)
        EXPECT_EQ(r.runs.size(), fx.clean_wal.runs.size());
      }
    } catch (const tsdb::CorruptionError& e) {
      // Only header damage may reject the whole file.
      EXPECT_LT(first_damage, kHeaderSize)
          << "body damage must tear, not reject";
      EXPECT_LE(e.offset(), bytes.size());
    }
  }
  EXPECT_GT(torn, 0);

  // A checksum-valid frame naming an id the file never defined is torn,
  // whole: its valid first run must not replay either.
  const auto frame = [](const std::vector<std::uint8_t>& payload) {
    std::string out(8, '\0');
    const std::uint32_t head[2] = {
        static_cast<std::uint32_t>(payload.size()),
        util::crc32c(payload.data(), payload.size())};
    for (int i = 0; i < 8; ++i) {
      out[static_cast<std::size_t>(i)] =
          static_cast<char>(head[i / 4] >> (8 * (i % 4)));
    }
    out.append(payload.begin(), payload.end());
    return out;
  };
  // 'R' id n | zigzag time varint | 8 value bytes, one point per run.
  const std::vector<std::uint8_t> good_run = {'R', 0, 1, 2, 0, 0, 0, 0,
                                              0, 0, 0, 0};
  std::vector<std::uint8_t> bad_frame = good_run;
  bad_frame.insert(bad_frame.end(), {'R', 0x7f, 1, 4, 0, 0, 0, 0, 0, 0, 0, 0});
  for (const auto& payload :
       {std::vector<std::uint8_t>{'R', 3, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0},
        bad_frame}) {
    write_bytes(mutant, clean + frame(payload) + frame(good_run));
    const tsdb::WalReplay r = tsdb::replay_wal(mutant);
    ASSERT_TRUE(r.torn_offset.has_value());
    EXPECT_EQ(*r.torn_offset, clean.size());
    EXPECT_EQ(r.series.size(), fx.clean_wal.series.size());
    EXPECT_EQ(r.runs.size(), fx.clean_wal.runs.size());
    expect_wal_prefix(r, fx.clean_wal);
  }
}

TEST(FuzzPersist, ManifestDamageNeverLies) {
  const PersistFixture fx = build_persist_fixture("fuzz_persist_manifest");
  const std::string clean = read_bytes(fx.dir + "/MANIFEST");
  const std::string mdir = persist_fresh_dir("fuzz_persist_manifest_mut");
  util::Rng rng("fuzz.manifest", 17);
  int detected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = clean;
    if (rng.uniform_int(0, 2) == 0) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
    } else {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
    }
    write_bytes(mdir + "/MANIFEST", bytes);
    try {
      const tsdb::Manifest m = tsdb::read_manifest(mdir);
      EXPECT_EQ(m.next_seq, fx.clean_manifest.next_seq);
      EXPECT_EQ(m.segments, fx.clean_manifest.segments);
    } catch (const tsdb::CorruptionError& e) {
      ++detected;
      EXPECT_LE(e.offset(), bytes.size());
    }
  }
  EXPECT_GT(detected, 0);
}

TEST(EngineProperty, CountersScaleLinearlyWithRuntime) {
  // Doubling a steady job's runtime doubles every cumulative counter
  // (within per-quantum rounding), because demand is stationary.
  auto run = [](util::SimTime runtime) {
    simhw::ClusterConfig cc;
    cc.num_nodes = 1;
    cc.topology = simhw::Topology{2, 4, false};
    simhw::Cluster cluster(cc);
    workload::Engine engine(cluster, 0);
    workload::JobSpec job;
    job.jobid = 1;
    job.profile = "md_engine";
    job.exe = "namd2";
    job.nodes = 1;
    job.wayness = 8;
    job.start_time = 0;
    job.end_time = runtime * 4;  // phase logic far away
    engine.start_job(job, {0});
    engine.advance(runtime);
    return cluster.node(0).state();
  };
  const auto one = run(util::kHour);
  const auto two = run(2 * util::kHour);
  EXPECT_NEAR(static_cast<double>(two.cores[0].instructions),
              2.0 * static_cast<double>(one.cores[0].instructions),
              0.02 * static_cast<double>(two.cores[0].instructions));
  EXPECT_NEAR(static_cast<double>(two.sockets[0].energy_pkg_uj),
              2.0 * static_cast<double>(one.sockets[0].energy_pkg_uj),
              0.02 * static_cast<double>(two.sockets[0].energy_pkg_uj));
  EXPECT_NEAR(static_cast<double>(two.ib.tx_bytes),
              2.0 * static_cast<double>(one.ib.tx_bytes),
              0.05 * static_cast<double>(two.ib.tx_bytes));
}

TEST(EngineProperty, AdvanceSlicingIsExactlyEquivalent) {
  // One advance(1h) == sixty advance(1m): the quantum integration makes
  // slicing invisible.
  auto run = [](int slices) {
    simhw::ClusterConfig cc;
    cc.num_nodes = 1;
    cc.topology = simhw::Topology{2, 4, false};
    simhw::Cluster cluster(cc);
    workload::Engine engine(cluster, 0);
    workload::JobSpec job;
    job.jobid = 9;
    job.profile = "genomics_io";
    job.exe = "blastn";
    job.nodes = 1;
    job.wayness = 8;
    job.start_time = 0;
    job.end_time = 4 * util::kHour;
    engine.start_job(job, {0});
    const util::SimTime step = util::kHour / slices;
    for (int i = 0; i < slices; ++i) engine.advance(step);
    return cluster.node(0).state();
  };
  const auto coarse = run(1);
  const auto fine = run(60);
  EXPECT_EQ(coarse.cores[0].instructions, fine.cores[0].instructions);
  EXPECT_EQ(coarse.lustre.mdc_reqs, fine.lustre.mdc_reqs);
  EXPECT_EQ(coarse.ib.tx_bytes, fine.ib.tx_bytes);
  EXPECT_EQ(coarse.sockets[0].energy_pkg_uj, fine.sockets[0].energy_pkg_uj);
}

TEST(TsdbProperty, GroupBySumsPartitionTheTotal) {
  // Sum over group-by groups == ungrouped sum, for any tag partition.
  util::Rng rng("tsdb.prop", 5);
  tsdb::Store store;
  for (int i = 0; i < 300; ++i) {
    store.put("m",
              {{"host", "h" + std::to_string(rng.uniform_int(0, 7))},
               {"user", "u" + std::to_string(rng.uniform_int(0, 3))}},
              rng.uniform_int(0, 9) * util::kMinute, rng.uniform(0.0, 10.0));
  }
  tsdb::Query total_q;
  total_q.metric = "m";
  total_q.aggregator = tsdb::Aggregator::Sum;
  total_q.downsample = util::kHour;
  const auto total = store.query(total_q);
  ASSERT_EQ(total.size(), 1u);

  for (const char* tag : {"host", "user"}) {
    tsdb::Query grouped = total_q;
    grouped.group_by = {tag};
    double sum = 0.0;
    for (const auto& series : store.query(grouped)) {
      for (const auto& p : series.points) sum += p.value;
    }
    double expected = 0.0;
    for (const auto& p : total[0].points) expected += p.value;
    EXPECT_NEAR(sum, expected, 1e-9) << tag;
  }
}

TEST(StatsProperty, MergeIsAssociativeAcrossRandomSplits) {
  util::Rng rng("stats.prop", 31);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.normal(5.0, 3.0));
  util::RunningStat whole;
  for (const double x : xs) whole.add(x);
  for (int trial = 0; trial < 10; ++trial) {
    const auto cut1 = static_cast<std::size_t>(rng.uniform_int(0, 999));
    const auto cut2 = static_cast<std::size_t>(rng.uniform_int(0, 999));
    const auto lo = std::min(cut1, cut2);
    const auto hi = std::max(cut1, cut2);
    util::RunningStat a, b, c;
    for (std::size_t i = 0; i < lo; ++i) a.add(xs[i]);
    for (std::size_t i = lo; i < hi; ++i) b.add(xs[i]);
    for (std::size_t i = hi; i < xs.size(); ++i) c.add(xs[i]);
    a.merge(b);
    a.merge(c);
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-7);
  }
}

}  // namespace
}  // namespace tacc

// Concurrency contract of the sharded time-series store and the parallel
// archive -> tsdb ingest path: N writers over M shards with interleaved
// queries, results compared against a serial store, plus the determinism
// guarantee (parallel ingest == serial ingest, byte for byte) and the
// num_points()-during-ingest regression. This file is the dedicated
// ThreadSanitizer workload (see -DTACC_TSAN=ON).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/ingest.hpp"
#include "transport/archive.hpp"
#include "tsdb/store.hpp"
#include "util/thread_pool.hpp"

namespace tacc::tsdb {
namespace {

constexpr util::SimTime kT0 = 1451606400LL * util::kSecond;

/// Exact equality of query outputs (tags, times, and bit-equal values).
void expect_identical(const std::vector<SeriesResult>& a,
                      const std::vector<SeriesResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].group_tags, b[i].group_tags);
    ASSERT_EQ(a[i].points.size(), b[i].points.size());
    for (std::size_t p = 0; p < a[i].points.size(); ++p) {
      EXPECT_EQ(a[i].points[p].time, b[i].points[p].time);
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: determinism means bit-identical.
      EXPECT_EQ(a[i].points[p].value, b[i].points[p].value);
    }
  }
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
  return qs;
}

TEST(TsdbConcurrent, ParallelWritersMatchSerialStore) {
  constexpr int kWriters = 8;
  constexpr int kSeriesPerWriter = 4;
  constexpr int kPoints = 500;

  Store sharded(StoreOptions{4});
  Store serial(StoreOptions{1});

  // Each writer owns its host tag, so series are disjoint; batches land in
  // whichever shard the series hashes to.
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&sharded, w] {
      for (int s = 0; s < kSeriesPerWriter; ++s) {
        const TagSet tags = {{"host", "h" + std::to_string(w)},
                             {"dev", "d" + std::to_string(s)}};
        std::vector<DataPoint> run;
        run.reserve(kPoints);
        for (int p = 0; p < kPoints; ++p) {
          run.push_back({kT0 + p * util::kMinute,
                         static_cast<double>(w * 1000 + s * 100 + p)});
        }
        sharded.put_batch("m", tags, run);
      }
    });
  }
  for (auto& t : writers) t.join();

  // The same data, serially, point by point, into a one-shard store.
  for (int w = 0; w < kWriters; ++w) {
    for (int s = 0; s < kSeriesPerWriter; ++s) {
      const TagSet tags = {{"host", "h" + std::to_string(w)},
                           {"dev", "d" + std::to_string(s)}};
      for (int p = 0; p < kPoints; ++p) {
        serial.put("m", tags, kT0 + p * util::kMinute,
                   static_cast<double>(w * 1000 + s * 100 + p));
      }
    }
  }

  EXPECT_EQ(sharded.num_series(), serial.num_series());
  EXPECT_EQ(sharded.num_points(), serial.num_points());
  for (const auto& q : probe_queries()) {
    expect_identical(sharded.query(q), serial.query(q));
  }
}

TEST(TsdbConcurrent, InterleavedQueriesSeeConsistentSeries) {
  constexpr int kWriters = 4;
  constexpr int kBatches = 50;
  constexpr int kBatchPoints = 40;

  Store store(StoreOptions{8});
  std::atomic<bool> done{false};
  std::atomic<std::size_t> query_failures{0};

  std::thread reader([&] {
    Query q;
    q.metric = "m";
    q.group_by = {"host"};
    std::size_t last_points = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Every observed series must be internally consistent: per-writer
      // values are monotone in time, and num_points never goes backwards.
      const std::size_t now_points = store.num_points();
      if (now_points < last_points) query_failures.fetch_add(1);
      last_points = now_points;
      for (const auto& r : store.query(q)) {
        for (std::size_t p = 1; p < r.points.size(); ++p) {
          if (r.points[p].value < r.points[p - 1].value) {
            query_failures.fetch_add(1);
          }
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      const TagSet tags = {{"host", "h" + std::to_string(w)}};
      int seq = 0;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<DataPoint> run;
        run.reserve(kBatchPoints);
        for (int p = 0; p < kBatchPoints; ++p, ++seq) {
          run.push_back({kT0 + seq * util::kSecond,
                         static_cast<double>(seq)});
        }
        store.put_batch("m", tags, run);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(query_failures.load(), 0u);
  EXPECT_EQ(store.num_points(),
            static_cast<std::size_t>(kWriters) * kBatches * kBatchPoints);
  EXPECT_EQ(store.num_series(), static_cast<std::size_t>(kWriters));
}

// Regression for the seed store's plain size_t counter: num_points() must
// be safe (and monotone) while ingest is in flight.
TEST(TsdbConcurrent, NumPointsIsSafeDuringConcurrentIngest) {
  constexpr int kWriters = 8;
  constexpr int kPutsPerWriter = 2000;

  Store store(StoreOptions{4});
  std::atomic<bool> done{false};
  std::atomic<bool> regressed{false};
  std::thread watcher([&] {
    std::size_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t now = store.num_points();
      if (now < last) regressed.store(true);
      last = now;
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      const TagSet tags = {{"host", "h" + std::to_string(w)}};
      for (int p = 0; p < kPutsPerWriter; ++p) {
        store.put("m", tags, kT0 + p * util::kSecond, 1.0);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  watcher.join();

  EXPECT_FALSE(regressed.load());
  EXPECT_EQ(store.num_points(),
            static_cast<std::size_t>(kWriters) * kPutsPerWriter);
}

TEST(TsdbConcurrent, HandlePutAndPutBatchMatchPut) {
  const auto fill_points = [](int s) {
    std::vector<DataPoint> run;
    for (int p = 0; p < 64; ++p) {
      // Deliberately out of order within the run.
      run.push_back({kT0 + ((p * 7) % 64) * util::kMinute,
                     static_cast<double>(s * 100 + (p * 7) % 64)});
    }
    return run;
  };

  Store via_put;
  Store via_batch;
  Store via_handles;
  std::vector<std::vector<DataPoint>> staged;
  std::vector<Store::Run> runs;
  for (int s = 0; s < 6; ++s) {
    const TagSet tags = {{"host", "h" + std::to_string(s % 3)},
                         {"dev", "d" + std::to_string(s)}};
    const auto run = fill_points(s);
    for (const auto& p : run) via_put.put("m", tags, p.time, p.value);
    via_batch.put_batch("m", tags, run);
    staged.push_back(run);
    runs.push_back({via_handles.series("m", tags), {}});
  }
  // Two runs per series in one put: each series' runs apply in call order.
  for (int s = 0; s < 6; ++s) {
    runs[s].points = std::span(staged[s]).first(40);
    runs.push_back({runs[s].series, std::span(staged[s]).subspan(40)});
  }
  via_handles.put(runs);

  EXPECT_EQ(via_handles.num_series(), via_put.num_series());
  EXPECT_EQ(via_handles.num_points(), via_put.num_points());
  for (const auto& q : probe_queries()) {
    expect_identical(via_put.query(q), via_batch.query(q));
    expect_identical(via_put.query(q), via_handles.query(q));
  }
}

TEST(TsdbConcurrent, QueryResultsInvariantUnderShardCount) {
  const auto fill = [](Store& store) {
    for (int h = 0; h < 12; ++h) {
      const TagSet tags = {{"host", "h" + std::to_string(h)},
                           {"user", h % 3 == 0 ? "storm" : "victim"}};
      std::vector<DataPoint> run;
      for (int p = 0; p < 100; ++p) {
        run.push_back({kT0 + p * util::kMinute,
                       static_cast<double>(h) + p * 0.1});
      }
      store.put_batch("m", tags, run);
    }
  };
  Store one(StoreOptions{1});
  Store many(StoreOptions{64});
  fill(one);
  fill(many);
  EXPECT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(many.num_shards(), 64u);
  for (auto q : probe_queries()) {
    q.group_by = {"user"};
    expect_identical(one.query(q), many.query(q));
  }
}

TEST(TsdbConcurrent, ParallelQueryMatchesSerialQuery) {
  Store store(StoreOptions{16});
  for (int h = 0; h < 16; ++h) {
    const TagSet tags = {{"host", "h" + std::to_string(h)}};
    std::vector<DataPoint> run;
    for (int p = 0; p < 200; ++p) {
      run.push_back({kT0 + p * util::kMinute, h * 0.25 + p * 1.5});
    }
    store.put_batch("m", tags, run);
  }
  util::ThreadPool pool(4);
  for (auto q : probe_queries()) {
    q.group_by = {"host"};
    q.downsample = 10 * util::kMinute;
    expect_identical(store.query(q), store.query(q, pool));
  }
}

// Acceptance workload for the compressed tier: queries interleaved with
// ingest AND concurrent sealing (auto-seal from the writers plus explicit
// seal_all() from a dedicated sealer thread). Every observed series must
// stay internally consistent — per-writer values are monotone in time no
// matter how points migrate from head buffers into sealed blocks.
TEST(TsdbConcurrent, QueriesDuringIngestAndConcurrentSealing) {
  constexpr int kWriters = 4;
  constexpr int kBatches = 40;
  constexpr int kBatchPoints = 50;

  StoreOptions opts;
  opts.shards = 8;
  opts.block_points = 64;  // writers cross seal boundaries constantly
  Store store(opts);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> failures{0};

  std::thread sealer([&] {
    while (!done.load(std::memory_order_acquire)) {
      store.seal_all();
    }
    store.seal_all();
  });

  std::thread reader([&] {
    Query plain;
    plain.metric = "m";
    plain.group_by = {"host"};
    Query coarse = plain;
    coarse.downsample = util::kHour;  // buckets cover whole blocks: rollups
    coarse.downsample_aggregator = Aggregator::Max;
    while (!done.load(std::memory_order_acquire)) {
      for (const auto& r : store.query(plain)) {
        for (std::size_t p = 1; p < r.points.size(); ++p) {
          if (r.points[p].value < r.points[p - 1].value) {
            failures.fetch_add(1);
          }
        }
      }
      for (const auto& r : store.query(coarse)) {
        for (std::size_t p = 1; p < r.points.size(); ++p) {
          if (r.points[p].value < r.points[p - 1].value) {
            failures.fetch_add(1);
          }
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      const TagSet tags = {{"host", "h" + std::to_string(w)}};
      int seq = 0;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<DataPoint> run;
        run.reserve(kBatchPoints);
        for (int p = 0; p < kBatchPoints; ++p, ++seq) {
          run.push_back({kT0 + seq * util::kSecond,
                         static_cast<double>(seq)});
        }
        store.put_batch("m", tags, run);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  sealer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(store.num_points(),
            static_cast<std::size_t>(kWriters) * kBatches * kBatchPoints);
  // Everything sealed; the sealed tier holds every point, compressed.
  const auto stats = store.storage_stats();
  EXPECT_EQ(stats.head_points, 0u);
  EXPECT_EQ(stats.sealed_points, store.num_points());

  // After the dust settles: identical to a never-sealed serial store.
  Store flat(StoreOptions{.shards = 1, .block_points = 0});
  for (int w = 0; w < kWriters; ++w) {
    const TagSet tags = {{"host", "h" + std::to_string(w)}};
    for (int seq = 0; seq < kBatches * kBatchPoints; ++seq) {
      flat.put("m", tags, kT0 + seq * util::kSecond,
               static_cast<double>(seq));
    }
  }
  for (auto q : probe_queries()) {
    q.group_by = {"host"};
    expect_identical(flat.query(q), store.query(q));
  }
}

// The durable commit path under concurrency: writers put, a reader
// queries, and one thread loops flush() and compact() over a store with
// small blocks. Afterwards, and after a reopen, the store answers exactly
// like a serial in-memory mirror.
TEST(TsdbConcurrent, FlushAndCompactDuringIngestAndQueries) {
  constexpr int kWriters = 3;
  constexpr int kSeriesPerWriter = 4;
  constexpr int kBatches = 40;
  constexpr int kBatchPoints = 8;
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "concurrent_commit";
  std::filesystem::remove_all(dir);
  StoreOptions opts;
  opts.shards = 4;
  opts.block_points = 16;
  opts.data_dir = dir.string();
  const auto host = [](int w, int s) {
    return "h" + std::to_string(w) + "-" + std::to_string(s);
  };

  Store mirror(StoreOptions{.shards = 1, .block_points = 0});
  for (int w = 0; w < kWriters; ++w) {
    for (int s = 0; s < kSeriesPerWriter; ++s) {
      for (int seq = 0; seq < kBatches * kBatchPoints; ++seq) {
        mirror.put("m", {{"host", host(w, s)}}, kT0 + seq * util::kSecond,
                   static_cast<double>(seq));
      }
    }
  }

  std::atomic<std::size_t> failures{0};
  {
    Store store(opts);
    std::atomic<bool> done{false};
    std::atomic<int> cycles{0};
    std::thread committer([&] {
      while (!done.load(std::memory_order_acquire)) {
        store.flush();
        store.compact();
        cycles.fetch_add(1, std::memory_order_release);
      }
    });
    std::thread reader([&] {
      Query q;
      q.metric = "m";
      q.group_by = {"host"};
      q.downsample = util::kMinute;
      q.downsample_aggregator = Aggregator::Max;
      while (!done.load(std::memory_order_acquire)) {
        for (const auto& r : store.query(q)) {
          for (std::size_t p = 1; p < r.points.size(); ++p) {
            if (r.points[p].value < r.points[p - 1].value) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&store, &host, &cycles, w] {
        for (int b = 0; b < kBatches; ++b) {
          // Pace the writers so several commits land mid-ingest.
          while (cycles.load(std::memory_order_acquire) < b / 8) {
            std::this_thread::yield();
          }
          for (int s = 0; s < kSeriesPerWriter; ++s) {
            std::vector<DataPoint> run;
            for (int p = 0; p < kBatchPoints; ++p) {
              const int seq = b * kBatchPoints + p;
              run.push_back({kT0 + seq * util::kSecond,
                             static_cast<double>(seq)});
            }
            store.put_batch("m", {{"host", host(w, s)}}, run);
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    done.store(true, std::memory_order_release);
    reader.join();
    committer.join();

    EXPECT_EQ(store.num_points(), mirror.num_points());
    for (const auto& q : probe_queries()) {
      expect_identical(mirror.query(q), store.query(q));
    }
  }  // no close(): the reopen recovers from segments + WAL
  EXPECT_EQ(failures.load(), 0u);
  Store reopened(opts);
  EXPECT_EQ(reopened.num_points(), mirror.num_points());
  for (const auto& q : probe_queries()) {
    expect_identical(mirror.query(q), reopened.query(q));
  }
}

/// Fills a small synthetic raw archive: `hosts` hosts, two schema types,
/// a few devices each, `records` records at one-minute cadence.
void fill_archive(transport::RawArchive& archive, int hosts, int records) {
  const std::vector<collect::Schema> schemas = {
      collect::Schema("cpu", {{"user", true, 64, "", 1.0},
                              {"sys", true, 64, "", 1.0}}),
      collect::Schema("mdc", {{"reqs", true, 64, "", 1.0},
                              {"wait", true, 64, "us", 1.0}}),
  };
  for (int h = 0; h < hosts; ++h) {
    const std::string host = "c400-" + std::to_string(h);
    archive.add_header(host, "hsw", schemas);
    for (int r = 0; r < records; ++r) {
      collect::Record rec;
      rec.time = kT0 + r * util::kMinute;
      for (int cpu = 0; cpu < 2; ++cpu) {
        rec.blocks.push_back(
            {"cpu",
             std::to_string(cpu),
             {static_cast<std::uint64_t>(r * 100 + cpu),
              static_cast<std::uint64_t>(r * 10 + cpu)}});
      }
      rec.blocks.push_back(
          {"mdc",
           "work-MDT0000",
           {static_cast<std::uint64_t>(r * 50 + h),
            static_cast<std::uint64_t>(r * 7)}});
      const util::SimTime t = rec.time;
      archive.append(host, std::move(rec), t);
    }
  }
}

// The acceptance-criteria determinism proof: fanning the archive load out
// over a pool produces a store whose query results are byte-identical to
// the serially-loaded one.
TEST(TsdbConcurrent, ParallelArchiveIngestIsDeterministic) {
  transport::RawArchive archive;
  fill_archive(archive, 9, 30);

  Store serial_store(StoreOptions{16});
  const auto serial_stats =
      pipeline::ingest_archive_tsdb(serial_store, archive, nullptr);

  util::ThreadPool pool(8);
  pipeline::TsdbIngestOptions opts;
  opts.batch_points = 128;  // force several mid-host flushes
  Store par_store(StoreOptions{16});
  const auto par_stats =
      pipeline::ingest_archive_tsdb(par_store, archive, &pool, opts);

  EXPECT_EQ(serial_stats.hosts, 9u);
  EXPECT_EQ(par_stats.hosts, serial_stats.hosts);
  EXPECT_EQ(par_stats.series, serial_stats.series);
  EXPECT_EQ(par_stats.points, serial_stats.points);
  EXPECT_EQ(par_store.num_series(), serial_store.num_series());
  EXPECT_EQ(par_store.num_points(), serial_store.num_points());

  // series per host: 2 cpu devices x 2 events + 1 mdc device x 2 events.
  EXPECT_EQ(serial_store.num_series(), 9u * 6u);

  std::vector<Query> qs;
  Query by_host;
  by_host.metric = "taccstats.cpu.user";
  by_host.group_by = {"host"};
  qs.push_back(by_host);
  Query by_device = by_host;
  by_device.metric = "taccstats.cpu.sys";
  by_device.group_by = {"device"};
  by_device.downsample = 5 * util::kMinute;
  qs.push_back(by_device);
  Query rated;
  rated.metric = "taccstats.mdc.reqs";
  rated.rate = true;
  rated.aggregator = Aggregator::Avg;
  qs.push_back(rated);
  for (const auto& q : qs) {
    const auto a = serial_store.query(q);
    const auto b = par_store.query(q);
    ASSERT_FALSE(a.empty());
    expect_identical(a, b);
  }
}

}  // namespace
}  // namespace tacc::tsdb

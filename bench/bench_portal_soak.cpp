// Portal serving-layer soak: drives the QueryEngine with thousands of
// concurrent mixed queries against live tsdb ingest, verifies the
// serving-layer contract (byte-identical results with the cache on or
// off and across worker counts — any mismatch exits nonzero), measures
// the warm-cache speedup on Fig. 4 histogram queries, and writes
// p50/p99 latency, sustained queries/s, and the cache hit rate into
// BENCH_portal.json (see docs/BENCHMARKS.md).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "portal/engine.hpp"
#include "tsdb/store.hpp"

namespace tacc::bench {
namespace {

using Clock = std::chrono::steady_clock;
using portal::QueryEngine;
using portal::QueryEngineOptions;
using portal::QueryRequest;
using portal::QueryResult;
using portal::QueryStatus;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Fixture {
  db::Database database;
  std::vector<workload::JobSpec> jobs;
  tsdb::Store store;
  std::vector<std::string> users;

  explicit Fixture(int num_jobs) {
    jobs = build_population_db(database, num_jobs);
    for (const auto& j : jobs) {
      if (users.empty() || users.back() != j.user) users.push_back(j.user);
    }
    // Seed the store with a few hosts of metadata-rate series so the
    // Timeseries mix has data to aggregate.
    std::vector<tsdb::DataPoint> points;
    for (int i = 0; i < 256; ++i) {
      points.push_back({i * util::kSecond, 100.0 + i});
    }
    for (int host = 0; host < 8; ++host) {
      char name[32];
      std::snprintf(name, sizeof name, "c401-%03d", host);
      store.put_batch("mds.reqs", {{"host", name}}, points);
    }
    store.seal_all();
  }

  db::Table& table() { return database.table(pipeline::kJobsTable); }

  /// The mixed query stream: deterministic in `i`, covering every
  /// request kind the portal serves.
  QueryRequest request(std::size_t i) const {
    QueryRequest r;
    switch (i % 5) {
      case 0:
        r.kind = QueryRequest::Kind::Search;
        r.query.user = users[i % users.size()];
        break;
      case 1:
        r.kind = QueryRequest::Kind::Histograms;
        // A small rotating set of filters so histogram queries exercise
        // both cache hits and cold renders.
        if (i % 3 == 1) r.query.queue = "normal";
        if (i % 3 == 2) r.query.min_runtime_s = 600.0;
        break;
      case 2:
        r.kind = QueryRequest::Kind::JobDetail;
        r.jobid = jobs[i % jobs.size()].jobid;
        break;
      case 3:
        r.kind = QueryRequest::Kind::FlaggedList;
        break;
      default:
        r.kind = QueryRequest::Kind::Timeseries;
        r.ts.metric = "mds.reqs";
        r.ts.group_by = {"host"};
        r.ts.downsample = 16 * util::kSecond;
        break;
    }
    return r;
  }
};

/// Byte-identity: the same request stream must render the same bytes with
/// the cache on or off, and across 1/2/8 workers. Exits nonzero on any
/// mismatch — this is the serving-layer correctness gate, not a timing.
void check_identity(Fixture& fx) {
  banner("Serving-layer identity: cache on/off, workers 1/2/8");
  constexpr std::size_t kProbe = 50;

  std::vector<std::string> reference(kProbe);
  {
    QueryEngineOptions opt;
    opt.cache_entries = 0;  // cache off: every query computed cold
    opt.workers = 1;
    QueryEngine engine(fx.table(), &fx.store, opt);
    for (std::size_t i = 0; i < kProbe; ++i) {
      const auto r = engine.execute(fx.request(i));
      if (r.status != QueryStatus::Ok) {
        std::fprintf(stderr, "FATAL: reference query %zu -> %s (%s)\n", i,
                     portal::to_string(r.status), r.error.c_str());
        std::exit(1);
      }
      reference[i] = r.payload;
    }
  }

  std::size_t checked = 0;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    QueryEngineOptions opt;
    opt.workers = workers;  // cache ON at default capacity
    QueryEngine engine(fx.table(), &fx.store, opt);
    // Two passes so the second is served warm from the cache.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::future<QueryResult>> futures;
      for (std::size_t i = 0; i < kProbe; ++i) {
        futures.push_back(engine.submit(fx.request(i)));
      }
      for (std::size_t i = 0; i < kProbe; ++i) {
        const auto r = futures[i].get();
        if (r.status != QueryStatus::Ok || r.payload != reference[i]) {
          std::fprintf(stderr,
                       "FATAL: divergence at query %zu (workers=%zu pass=%d "
                       "status=%s cached=%d)\n",
                       i, workers, pass, portal::to_string(r.status),
                       int(r.cached));
          std::exit(1);
        }
        ++checked;
      }
    }
  }
  std::printf("%zu results byte-identical across cache off / on-cold / "
              "on-warm and 1/2/8 workers\n",
              checked);
}

/// Warm-cache speedup on the Fig. 4 histogram query (the page the paper
/// renders on every search). The acceptance bar is >= 10x.
double measure_warm_speedup(Fixture& fx, BenchJson& json) {
  banner("Fig. 4 histogram query: cold vs warm cache");
  const int reps = bench_smoke() ? 50 : 200;
  QueryRequest req;
  req.kind = QueryRequest::Kind::Histograms;

  QueryEngineOptions cold_opt;
  cold_opt.cache_entries = 0;
  QueryEngine cold(fx.table(), &fx.store, cold_opt);
  cold.execute(req);  // warm up outside the timed loop
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) cold.execute(req);
  const double cold_s = seconds_since(t0);

  QueryEngine warm(fx.table(), &fx.store);
  warm.execute(req);  // fill the cache
  const auto t1 = Clock::now();
  for (int i = 0; i < reps; ++i) warm.execute(req);
  const double warm_s = seconds_since(t1);

  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  std::printf("cold %.1f us/query, warm %.2f us/query -> %.0fx\n",
              1e6 * cold_s / reps, 1e6 * warm_s / reps, speedup);
  json.put("fig4.cold_us_per_query", 1e6 * cold_s / reps);
  json.put("fig4.warm_us_per_query", 1e6 * warm_s / reps);
  json.put("fig4.warm_speedup", speedup);
  if (speedup < 10.0) {
    std::fprintf(stderr, "FATAL: warm-cache speedup %.1fx < 10x\n", speedup);
    std::exit(1);
  }
  return speedup;
}

void store_put(Fixture& fx, const std::vector<tsdb::DataPoint>& pts,
               util::SimTime t);

/// The soak: >= 1000 queries in flight against live ingest. The ingester
/// thread keeps appending points (bumping the store epoch, invalidating
/// cached timeseries results) for the whole run.
void soak(Fixture& fx, BenchJson& json) {
  banner("Concurrent soak: mixed queries vs live ingest");
  const std::size_t total = bench_smoke() ? 2000 : 10000;
  constexpr std::size_t kWave = 1000;  // concurrent submissions per wave

  QueryEngineOptions opt;
  opt.queue_limit = 2 * kWave;  // soak measures throughput, not shedding
  QueryEngine engine(fx.table(), &fx.store, opt);

  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    std::vector<tsdb::DataPoint> pts(16);
    for (util::SimTime t = 1000 * util::kSecond; !stop.load();
         t += 16 * util::kSecond) {
      for (std::size_t i = 0; i < pts.size(); ++i) {
        pts[i] = {t + util::SimTime(i) * util::kSecond, double(t % 4096)};
      }
      store_put(fx, pts, t);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const auto t0 = Clock::now();
  std::size_t issued = 0, ok = 0, other = 0;
  while (issued < total) {
    std::vector<std::future<QueryResult>> futures;
    const std::size_t wave = std::min(kWave, total - issued);
    futures.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) {
      futures.push_back(engine.submit(fx.request(issued + i)));
    }
    for (auto& f : futures) {
      (f.get().status == QueryStatus::Ok ? ok : other)++;
    }
    issued += wave;
  }
  const double elapsed = seconds_since(t0);
  stop.store(true);
  ingester.join();

  const auto s = engine.stats();
  const double hit_rate =
      s.cache_hits + s.cache_misses > 0
          ? double(s.cache_hits) / double(s.cache_hits + s.cache_misses)
          : 0.0;
  const double qps = elapsed > 0.0 ? double(ok) / elapsed : 0.0;
  std::printf("%zu queries (%zu ok, %zu not-ok) in %.2fs -> %.0f q/s\n", issued,
              ok, other, elapsed, qps);
  std::printf("p50 %.1f us, p99 %.1f us, cache hit rate %.1f%%, "
              "store epoch %llu\n",
              s.p50_ns / 1e3, s.p99_ns / 1e3, 100.0 * hit_rate,
              static_cast<unsigned long long>(fx.store.ingest_epoch()));
  std::fputs(engine.stats_table().c_str(), stdout);

  json.put("soak.queries", issued);
  json.put("soak.concurrency", kWave);
  json.put("soak.qps", qps);
  json.put("soak.p50_ns", std::int64_t(s.p50_ns));
  json.put("soak.p99_ns", std::int64_t(s.p99_ns));
  json.put("soak.cache_hit_rate", hit_rate);
  json.put("soak.cache_evictions", s.cache_evictions);
  json.put("soak.shed", s.shed);
  json.put("soak.timed_out", s.timed_out);
  json.put("soak.failed", s.failed);

  if (ok == 0 || other != 0) {
    std::fprintf(stderr, "FATAL: soak saw %zu non-Ok results\n", other);
    std::exit(1);
  }
}

void store_put(Fixture& fx, const std::vector<tsdb::DataPoint>& pts,
               util::SimTime t) {
  char name[32];
  std::snprintf(name, sizeof name, "c401-%03d", int(t % 8));
  fx.store.put_batch("mds.reqs", {{"host", name}}, pts);
}

void report() {
  const bool smoke = bench_smoke();
  banner(smoke ? "Portal serving-layer soak (smoke)"
               : "Portal serving-layer soak");
  Fixture fx(smoke ? 400 : 3000);
  std::printf("%zu jobs, %zu tsdb series, %zu points\n",
              fx.table().num_rows(), fx.store.num_series(),
              fx.store.num_points());

  BenchJson json("portal_soak");
  check_identity(fx);
  measure_warm_speedup(fx, json);
  soak(fx, json);
  const auto path = bench_json_path("BENCH_portal.json");
  if (json.write(path)) {
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "FATAL: could not write %s\n", path.c_str());
    std::exit(1);
  }
}

// Microbenchmarks for interactive use (the CI smoke run filters these
// out); the report above is the reproduction gate.
Fixture& shared_fixture() {
  static Fixture fx(bench_smoke() ? 400 : 3000);
  return fx;
}

void BM_WarmHistogram(benchmark::State& state) {
  auto& fx = shared_fixture();
  QueryEngine engine(fx.table(), &fx.store);
  QueryRequest req;
  req.kind = QueryRequest::Kind::Histograms;
  engine.execute(req);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(req).payload);
  }
}
BENCHMARK(BM_WarmHistogram);

void BM_ColdSearch(benchmark::State& state) {
  auto& fx = shared_fixture();
  QueryEngineOptions opt;
  opt.cache_entries = 0;
  QueryEngine engine(fx.table(), &fx.store, opt);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(fx.request(i * 5)).payload);
    ++i;
  }
}
BENCHMARK(BM_ColdSearch);

}  // namespace
}  // namespace tacc::bench

TS_BENCH_MAIN(tacc::bench::report)

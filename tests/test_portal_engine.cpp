// Portal serving layer: cache identity, epoch invalidation, deadlines,
// admission control / shed accounting, and worker-count determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "pipeline/ingest.hpp"
#include "portal/engine.hpp"
#include "portal/search.hpp"
#include "portal/views.hpp"
#include "tsdb/store.hpp"

namespace tacc::portal {
namespace {

using pipeline::JobMetrics;

db::Table& populated_jobs(db::Database& database) {
  auto& jobs = pipeline::create_jobs_table(database);
  auto insert = [&](long id, const char* user, const char* exe,
                    const char* queue, double cpu, double mdr,
                    util::SimTime start, double runtime_s,
                    const std::vector<pipeline::Flag>& flags = {}) {
    workload::AccountingRecord a;
    a.jobid = id;
    a.user = user;
    a.exe = exe;
    a.jobname = "run";
    a.queue = queue;
    a.status = "COMPLETED";
    a.nodes = 4;
    a.wayness = 16;
    a.submit_time = start - util::kMinute;
    a.start_time = start;
    a.end_time = start + util::from_seconds(runtime_s);
    JobMetrics m;
    m.CPU_Usage = cpu;
    m.MetaDataRate = mdr;
    m.MemUsage = 5.0;
    pipeline::ingest_job(jobs, a, m, flags);
  };
  const auto day = util::make_time(2016, 1, 4);
  insert(1, "alice", "wrf.exe", "normal", 0.8, 1000.0, day, 7200);
  insert(2, "bob", "wrf.exe", "normal", 0.6, 600000.0,
         day + 2 * util::kHour, 3600, {{"high_metadata_rate", "storm"}});
  insert(3, "alice", "namd2", "normal", 0.9, 100.0, day + util::kDay, 600);
  insert(4, "carol", "R", "largemem", 0.5, 50.0, day, 5400);
  return jobs;
}

QueryRequest search_request(const char* user = nullptr) {
  QueryRequest r;
  r.kind = QueryRequest::Kind::Search;
  if (user != nullptr) r.query.user = user;
  return r;
}

QueryRequest histogram_request() {
  QueryRequest r;
  r.kind = QueryRequest::Kind::Histograms;
  return r;
}

TEST(EngineCache, HitIsByteIdenticalAndFlagged) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngine engine(jobs);

  const auto cold = engine.execute(search_request("alice"));
  ASSERT_EQ(cold.status, QueryStatus::Ok);
  EXPECT_FALSE(cold.cached);

  const auto warm = engine.execute(search_request("alice"));
  ASSERT_EQ(warm.status, QueryStatus::Ok);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.payload, cold.payload);

  // And both match the direct (engine-free) rendering.
  PortalQuery q;
  q.user = "alice";
  EXPECT_EQ(cold.payload, job_list_view(jobs, run_query(jobs, q), 25));

  const auto s = engine.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(EngineCache, DisabledCacheStillCorrect) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngineOptions opt;
  opt.cache_entries = 0;
  QueryEngine cached(jobs);
  QueryEngine uncached(jobs, nullptr, opt);

  for (const auto& req : {search_request(), search_request("alice"),
                          histogram_request()}) {
    const auto a = cached.execute(req);
    const auto b = uncached.execute(req);
    ASSERT_EQ(a.status, QueryStatus::Ok);
    ASSERT_EQ(b.status, QueryStatus::Ok);
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_FALSE(b.cached);
  }
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
}

TEST(EngineCache, HistogramsMatchDirectRendering) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngine engine(jobs);

  // Every job, one user's, one queue's, a minimum run time, and a search
  // that matches nothing.
  std::vector<PortalQuery> queries(5);
  queries[1].user = "alice";
  queries[2].queue = "largemem";
  queries[3].min_runtime_s = 3600.0;
  queries[4].user = "nobody";
  ASSERT_TRUE(run_query(jobs, queries[4]).empty());
  for (const auto& q : queries) {
    for (const std::size_t bins : {std::size_t{8}, std::size_t{12}}) {
      QueryRequest req = histogram_request();
      req.query = q;
      req.bins = bins;
      const auto cold = engine.execute(req);
      ASSERT_EQ(cold.status, QueryStatus::Ok);
      EXPECT_FALSE(cold.cached);
      EXPECT_EQ(cold.payload,
                query_histograms(jobs, run_query(jobs, q), bins));

      const auto warm = engine.execute(req);
      EXPECT_TRUE(warm.cached);
      EXPECT_EQ(warm.payload, cold.payload);
    }
  }
}

TEST(EngineCache, LruEvictsAtCapacity) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngineOptions opt;
  opt.cache_entries = 1;
  QueryEngine engine(jobs, nullptr, opt);

  ASSERT_EQ(engine.execute(search_request("alice")).status, QueryStatus::Ok);
  ASSERT_EQ(engine.execute(search_request("bob")).status, QueryStatus::Ok);
  // alice was evicted by bob; re-running alice is a miss again.
  EXPECT_FALSE(engine.execute(search_request("alice")).cached);
  EXPECT_GE(engine.stats().cache_evictions, 2u);
}

TEST(EngineEpochTest, StoreIngestInvalidatesExactly) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  tsdb::Store store;
  QueryEngine engine(jobs, &store);

  QueryRequest req;
  req.kind = QueryRequest::Kind::Timeseries;
  req.ts.metric = "llite.open";
  req.ts.group_by = {"host"};

  const auto e0 = engine.current_epoch();
  ASSERT_EQ(engine.execute(req).status, QueryStatus::Ok);
  EXPECT_TRUE(engine.execute(req).cached);  // no ingest: still valid

  const std::vector<tsdb::DataPoint> pts = {{0, 1.0}, {10, 2.0}};
  store.put_batch("llite.open", {{"host", "c401-001"}}, pts);
  const auto e1 = engine.current_epoch();
  EXPECT_NE(e0, e1);
  EXPECT_EQ(e1.store, e0.store + 1);

  const auto fresh = engine.execute(req);
  ASSERT_EQ(fresh.status, QueryStatus::Ok);
  EXPECT_FALSE(fresh.cached);  // epoch moved: entry was stale
  EXPECT_NE(fresh.payload.find("c401-001"), std::string::npos);

  // seal_all also bumps; a query that saw raw points must not serve the
  // pre-seal bytes from cache.
  store.seal_all();
  EXPECT_FALSE(engine.execute(req).cached);
  // No further ingest: now it caches again.
  EXPECT_TRUE(engine.execute(req).cached);
}

TEST(EngineEpochTest, StoreIngestKeepsJobsTableResultsCached) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  tsdb::Store store;
  QueryEngine engine(jobs, &store);

  ASSERT_EQ(engine.execute(search_request()).status, QueryStatus::Ok);
  ASSERT_EQ(engine.execute(histogram_request()).status, QueryStatus::Ok);
  const tsdb::Store::Handle h =
      store.series("llite.open", {{"host", "c401-001"}});
  for (int i = 0; i < 5; ++i) {
    const tsdb::DataPoint p{i * util::kMinute, 1.0 * i};
    store.put(h, std::span<const tsdb::DataPoint>(&p, 1));
    // The store moved, the jobs table did not: neither request reads it.
    EXPECT_TRUE(engine.execute(search_request()).cached) << "put " << i;
    EXPECT_TRUE(engine.execute(histogram_request()).cached) << "put " << i;
  }
  EXPECT_EQ(engine.stats().cache_hits, 10u);
}

TEST(EngineEpochTest, JobsRowCountAndManualBumpInvalidate) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngine engine(jobs);

  ASSERT_EQ(engine.execute(search_request()).status, QueryStatus::Ok);
  EXPECT_TRUE(engine.execute(search_request()).cached);

  engine.invalidate_jobs();
  EXPECT_FALSE(engine.execute(search_request()).cached);
  EXPECT_TRUE(engine.execute(search_request()).cached);

  // Appending a job changes the row count — no manual bump needed.
  workload::AccountingRecord a;
  a.jobid = 99;
  a.user = "dave";
  a.exe = "vasp";
  a.queue = "normal";
  a.status = "COMPLETED";
  a.nodes = 2;
  a.wayness = 16;
  a.start_time = util::make_time(2016, 1, 5);
  a.end_time = a.start_time + util::kHour;
  a.submit_time = a.start_time - util::kMinute;
  pipeline::ingest_job(jobs, a, JobMetrics{}, {});

  const auto fresh = engine.execute(search_request());
  EXPECT_FALSE(fresh.cached);
  EXPECT_NE(fresh.payload.find("dave"), std::string::npos);
}

TEST(EngineDeadline, ExpiredDeadlineIsCleanTimeout) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngine engine(jobs);

  auto req = search_request();
  req.deadline_ns = 0;  // expires at the first cooperative check
  const auto r = engine.execute(req);
  EXPECT_EQ(r.status, QueryStatus::TimedOut);
  EXPECT_TRUE(r.payload.empty());  // never partial
  EXPECT_FALSE(r.cached);

  const auto s = engine.stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.completed, 0u);

  // A timed-out attempt must not poison the cache.
  req.deadline_ns = -1;
  const auto ok = engine.execute(req);
  EXPECT_EQ(ok.status, QueryStatus::Ok);
  EXPECT_FALSE(ok.cached);
  EXPECT_FALSE(ok.payload.empty());
}

TEST(EngineDeadline, DefaultDeadlineFromOptions) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngineOptions opt;
  opt.default_deadline_ns = 1;  // effectively immediate
  QueryEngine engine(jobs, nullptr, opt);
  EXPECT_EQ(engine.execute(search_request()).status, QueryStatus::TimedOut);

  // An explicit generous per-request budget overrides the default.
  auto req = search_request();
  req.deadline_ns = std::int64_t{60} * 1'000'000'000;
  EXPECT_EQ(engine.execute(req).status, QueryStatus::Ok);
}

TEST(EngineErrors, UnknownJobAndMissingStore) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngine engine(jobs);

  QueryRequest detail;
  detail.kind = QueryRequest::Kind::JobDetail;
  detail.jobid = 424242;
  const auto r = engine.execute(detail);
  EXPECT_EQ(r.status, QueryStatus::Error);
  EXPECT_FALSE(r.error.empty());

  QueryRequest ts;
  ts.kind = QueryRequest::Kind::Timeseries;
  EXPECT_EQ(engine.execute(ts).status, QueryStatus::Error);
  EXPECT_EQ(engine.stats().failed, 2u);
}

TEST(EngineAdmission, ShedAccountingIsExact) {
  db::Database database;
  auto& jobs = populated_jobs(database);

  // Two workers, queue_limit 4: park both workers on a latch, submit 12.
  // Exactly 4 are admitted (2 parked + 2 queued), exactly 8 shed.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> parked{0};
  QueryEngineOptions opt;
  opt.workers = 2;
  opt.queue_limit = 4;
  opt.before_execute = [&] {
    parked.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  };
  QueryEngine engine(jobs, nullptr, opt);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 2; ++i) futures.push_back(engine.submit(search_request()));
  while (parked.load() < 2) std::this_thread::yield();
  for (int i = 0; i < 10; ++i) {
    futures.push_back(engine.submit(search_request()));
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  std::size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.status == QueryStatus::Ok) ++ok;
    if (r.status == QueryStatus::Overloaded) ++shed;
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(shed, 8u);

  const auto s = engine.stats();
  EXPECT_EQ(s.admitted, 4u);
  EXPECT_EQ(s.shed, 8u);
  EXPECT_EQ(s.admitted + s.shed, 12u);        // every submission accounted
  EXPECT_EQ(s.completed + s.timed_out + s.failed, s.admitted);
  EXPECT_EQ(s.in_flight, 0u);
}

TEST(EngineConcurrency, ParallelMixedLoadIsConsistent) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  tsdb::Store store;
  const std::vector<tsdb::DataPoint> seed = {{0, 1.0}, {10, 2.0}};
  store.put_batch("llite.open", {{"host", "c401-001"}}, seed);

  QueryEngineOptions opt;
  opt.workers = 4;
  QueryEngine engine(jobs, &store, opt);

  // Reference payloads computed single-threaded, before the storm.
  const std::string want_search = engine.execute(search_request()).payload;
  const std::string want_hist = engine.execute(histogram_request()).payload;

  constexpr int kPerKind = 64;
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(3 * kPerKind);
  for (int i = 0; i < kPerKind; ++i) {
    futures.push_back(engine.submit(search_request()));
    futures.push_back(engine.submit(histogram_request()));
    QueryRequest detail;
    detail.kind = QueryRequest::Kind::JobDetail;
    detail.jobid = 1 + (i % 4);
    futures.push_back(engine.submit(detail));
  }
  // Live ingest racing the queries: bumps the epoch, invalidates the
  // cache, but must never corrupt a payload (store is thread-safe,
  // jobs table is untouched).
  std::thread ingester([&] {
    for (int i = 0; i < 16; ++i) {
      const std::vector<tsdb::DataPoint> pts = {{100 + i, double(i)}};
      store.put_batch("llite.open", {{"host", "c401-002"}}, pts);
    }
  });

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].get();
    ASSERT_EQ(r.status, QueryStatus::Ok);
    if (i % 3 == 0) {
      EXPECT_EQ(r.payload, want_search);
    } else if (i % 3 == 1) {
      EXPECT_EQ(r.payload, want_hist);
    }
  }
  ingester.join();

  const auto s = engine.stats();
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_GT(s.p99_ns, 0u);
}

TEST(EngineConcurrency, WorkerCountDoesNotChangeBytes) {
  db::Database database;
  auto& jobs = populated_jobs(database);

  std::vector<std::string> payloads;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    QueryEngineOptions opt;
    opt.workers = workers;
    QueryEngine engine(jobs, nullptr, opt);
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 32; ++i) {
      futures.push_back(engine.submit(histogram_request()));
    }
    std::string got;
    for (auto& f : futures) {
      const auto r = f.get();
      ASSERT_EQ(r.status, QueryStatus::Ok);
      if (got.empty()) {
        got = r.payload;
      } else {
        ASSERT_EQ(r.payload, got);
      }
    }
    payloads.push_back(got);
    EXPECT_EQ(engine.workers(), workers);
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(payloads[1], payloads[2]);
}

TEST(EngineObservability, StatsTableListsEveryCounter) {
  db::Database database;
  auto& jobs = populated_jobs(database);
  QueryEngine engine(jobs);
  engine.execute(search_request());
  const auto table = engine.stats_table();
  for (const char* name :
       {"queries_admitted", "queries_shed", "queries_completed",
        "queries_timed_out", "queries_failed", "queries_in_flight",
        "cache_hits", "cache_misses", "cache_evictions",
        "summary_rebuilds", "p50_ns", "p99_ns"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

TEST(EngineCacheKey, CanonicalizationAndSensitivity) {
  // Search-field order is canonicalized away...
  QueryRequest a = search_request();
  a.query.search_fields = {"MetaDataRate__gte=1000", "cpi__lt=2"};
  QueryRequest b = search_request();
  b.query.search_fields = {"cpi__lt=2", "MetaDataRate__gte=1000"};
  EXPECT_EQ(QueryEngine::cache_key(a), QueryEngine::cache_key(b));

  // ...but the deadline is excluded, and every semantic field matters.
  QueryRequest c = a;
  c.deadline_ns = 12345;
  EXPECT_EQ(QueryEngine::cache_key(a), QueryEngine::cache_key(c));

  QueryRequest d = a;
  d.limit = 50;
  EXPECT_NE(QueryEngine::cache_key(a), QueryEngine::cache_key(d));
  QueryRequest e = a;
  e.kind = QueryRequest::Kind::FlaggedList;
  EXPECT_NE(QueryEngine::cache_key(a), QueryEngine::cache_key(e));
  QueryRequest f = a;
  f.query.user = "alice";
  EXPECT_NE(QueryEngine::cache_key(a), QueryEngine::cache_key(f));

  // Timeseries filters: a '=' inside a tag key or value cannot make two
  // filter sets share a key.
  QueryRequest g;
  g.kind = QueryRequest::Kind::Timeseries;
  g.ts.metric = "taccstats.cpu.user";
  g.ts.filters = {{"a", "b=c"}};
  QueryRequest h = g;
  h.ts.filters = {{"a=b", "c"}};
  EXPECT_NE(QueryEngine::cache_key(g), QueryEngine::cache_key(h));
}

}  // namespace
}  // namespace tacc::portal

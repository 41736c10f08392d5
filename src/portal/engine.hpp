// The portal serving layer: a concurrent, cached query engine fronting the
// relational jobs table and the time-series store, so the query surface
// the paper's Figs. 4-5 describe can be served at interactive latency
// under production traffic instead of one caller at a time.
//
// Request lifecycle:
//
//   submit()/execute()
//     └─ admission control: if queue_limit in-flight queries are already
//        admitted, the request is shed immediately with status Overloaded
//        (load shedding beats unbounded queueing: a bounded queue keeps
//        tail latency finite and the shed count visible).
//     └─ cache lookup: results are keyed by a canonicalized descriptor of
//        the request (cache_key()) plus the part of the engine epoch the
//        request reads. A hit returns the exact bytes the cold query
//        produced.
//     └─ execution on a util::ThreadPool worker: the request's view
//        renders the page, with the per-query deadline checked before
//        and after it; expiry returns a clean TimedOut with NO partial
//        output.
//     └─ Ok results enter the LRU cache; counters and the fixed-bucket
//        latency histogram (util::LatencyHistogram) are updated either way.
//
// Invalidation: the engine epoch is the triple (tsdb ingest epoch, jobs
// row count, manual bump), and each result is keyed on the part its kind
// reads. Timeseries results key on the tsdb ingest epoch, which
// tsdb::Store bumps on every put that lands points and on every seal_all,
// so they are dropped — lazily, at lookup — the moment new points land.
// Every other kind keys on (jobs row count, manual bump), so live tsdb
// ingest leaves it cached. Mutating the jobs table in place (same row
// count) requires an invalidate_jobs() call.
//
// Every kind renders through the function a direct caller uses
// (job_list_view, query_histograms, daily_report, render_timeseries...),
// so a cold result is byte for byte the direct rendering.
//
// Thread-safety contract:
//   * submit(), execute(), stats(), stats_table(), current_epoch() and
//     invalidate_jobs() are safe from any thread, concurrently.
//   * The jobs table is read-only to the engine. Callers must not mutate
//     it while queries are in flight; after an (externally synchronized)
//     mutation, call invalidate_jobs() unless the row count changed.
//   * The tsdb store is internally synchronized; live ingest during
//     serving is supported and is exactly what bumps the epoch.
//   * Determinism: for a fixed jobs table + store state, result payloads
//     are byte-identical with the cache on or off, across worker counts,
//     and across submission orders (each query runs on one worker).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/table.hpp"
#include "portal/search.hpp"
#include "tsdb/store.hpp"
#include "util/latency.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace tacc::portal {

/// Outcome of one query.
enum class QueryStatus {
  Ok,          // payload holds the full rendered result
  Overloaded,  // shed at admission: queue_limit queries already in flight
  TimedOut,    // deadline expired before or after the view; no payload
  Error,       // malformed request (unknown job, no store, bad field...)
};

const char* to_string(QueryStatus status) noexcept;

/// One request against the portal surface. Exactly the fields named by the
/// request's kind are consulted; the rest are ignored (and excluded from
/// the cache key).
struct QueryRequest {
  enum class Kind {
    Search,       // Fig. 3 query form -> job list (job_list_view)
    FlaggedList,  // the flagged sublist of a search result
    Histograms,   // Fig. 4: four histograms over a search result
    JobDetail,    // per-job detail view by jobid (Fig. 5 page header)
    DailyReport,  // the consulting staff daily report for `day`
    Timeseries,   // a tsdb query, rendered as deterministic text
  };
  Kind kind = Kind::Search;
  /// Search / FlaggedList / Histograms: the portal query form.
  PortalQuery query;
  /// JobDetail only.
  long jobid = 0;
  /// DailyReport only.
  util::SimTime day = 0;
  /// Search / FlaggedList: job-list row cap (0 = all).
  std::size_t limit = 25;
  /// Histograms: bin count.
  std::size_t bins = 12;
  /// Timeseries only.
  tsdb::Query ts;
  /// Per-query wall-clock budget in nanoseconds. < 0 uses the engine's
  /// default_deadline_ns; 0 expires before the view runs (an always-late
  /// query, useful in tests); > 0 is the budget.
  std::int64_t deadline_ns = -1;
};

/// One query's outcome. `payload` is complete or empty, never partial.
struct QueryResult {
  QueryStatus status = QueryStatus::Ok;
  std::string payload;
  /// True when the payload came from the result cache.
  bool cached = false;
  std::string error;  // set when status == Error
};

/// Tuning knobs (documented in docs/ARCHITECTURE.md and docs/PORTAL.md).
struct QueryEngineOptions {
  /// Executor width; 0 = hardware concurrency (util::ThreadPool default).
  std::size_t workers = 0;
  /// LRU result-cache capacity in entries; 0 disables caching.
  std::size_t cache_entries = 1024;
  /// Admission limit: maximum queries in flight (queued + executing);
  /// submissions beyond it are shed with Overloaded. 0 = unbounded.
  std::size_t queue_limit = 4096;
  /// Default per-query deadline in nanoseconds; 0 = no deadline.
  std::int64_t default_deadline_ns = 0;
  /// Test instrumentation: when set, invoked at the start of every
  /// admitted query's execution, on the worker thread (the shed-accounting
  /// tests park workers here to make admission deterministic). Leave
  /// empty in production.
  std::function<void()> before_execute;
};

/// Monotonic per-engine counters, in the style of util::ResilienceStats:
/// a stats() snapshot is a plain value, cheap to diff across a window.
struct EngineStats {
  std::uint64_t admitted = 0;      // passed admission control
  std::uint64_t shed = 0;          // rejected with Overloaded
  std::uint64_t completed = 0;     // finished Ok (cached or computed)
  std::uint64_t timed_out = 0;     // deadline expired (no payload)
  std::uint64_t failed = 0;        // finished with Error
  std::uint64_t cache_hits = 0;    // served straight from the cache
  std::uint64_t cache_misses = 0;  // executed (cold, stale, or uncacheable)
  std::uint64_t cache_evictions = 0;  // entries dropped (capacity or stale)
  /// Always 0: the engine keeps no materialized summaries. The field
  /// stays because perfbench reports it.
  std::uint64_t summary_rebuilds = 0;
  std::uint64_t in_flight = 0;     // admitted, not yet finished (gauge)
  /// Admitted-query latency percentiles from the fixed-bucket histogram
  /// (bucket upper bound — at most one power of two of overestimate).
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;

  bool operator==(const EngineStats&) const noexcept = default;
};

/// The engine epoch. A cached result is valid only while the components
/// its kind reads are unchanged: `store` for Timeseries, `jobs_rows` and
/// `manual` for every other kind.
struct EngineEpoch {
  std::uint64_t store = 0;      // tsdb::Store::ingest_epoch()
  std::uint64_t jobs_rows = 0;  // jobs-table row count
  std::uint64_t manual = 0;     // invalidate_jobs() bumps
  bool operator==(const EngineEpoch&) const noexcept = default;
};

class QueryEngine {
 public:
  /// The engine serves `jobs` (required) and `store` (may be nullptr when
  /// no time-series surface is needed; Timeseries requests then fail with
  /// Error). Neither is owned; both must outlive the engine.
  explicit QueryEngine(const db::Table& jobs,
                       const tsdb::Store* store = nullptr,
                       const QueryEngineOptions& options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Admission-checks and enqueues the request on the executor. The
  /// future is always valid: shed requests resolve immediately with
  /// Overloaded. Thread-safe.
  std::future<QueryResult> submit(const QueryRequest& request)
      TACC_EXCLUDES(cache_mu_);

  /// Admission-checks and runs the request on the calling thread
  /// (the caller occupies one in-flight slot; workers stay free).
  /// Thread-safe.
  QueryResult execute(const QueryRequest& request) TACC_EXCLUDES(cache_mu_);

  /// The canonicalized cache descriptor for a request: equal descriptors
  /// are the same query. Deterministic; deadline and instrumentation
  /// fields are excluded.
  static std::string cache_key(const QueryRequest& request);

  /// The current invalidation epoch. Thread-safe.
  EngineEpoch current_epoch() const noexcept;

  /// Invalidates every cached jobs-table result after an in-place
  /// jobs-table mutation the epoch cannot see (same row count).
  /// Thread-safe.
  void invalidate_jobs() noexcept;

  /// Counter snapshot. Thread-safe.
  EngineStats stats() const TACC_EXCLUDES(cache_mu_);

  /// The stats rendered as an ASCII table (the engine's observability
  /// page). Thread-safe.
  std::string stats_table() const TACC_EXCLUDES(cache_mu_);

  std::size_t workers() const noexcept { return pool_->size(); }

 private:
  struct Deadline;
  struct CacheEntry {
    EngineEpoch epoch;
    std::string payload;
  };

  /// Admission control for submit() and execute(): takes an in-flight
  /// slot and counts the request admitted, or counts it shed and returns
  /// false when queue_limit requests are already in flight.
  bool admit() noexcept;
  /// Runs one admitted request end to end (cache lookup, execution,
  /// cache fill, accounting). Called on a worker (submit) or the caller
  /// (execute).
  QueryResult run_admitted(const QueryRequest& request)
      TACC_EXCLUDES(cache_mu_);
  /// Executes a cache-miss request. Returns Ok/TimedOut/Error.
  QueryResult execute_cold(const QueryRequest& request,
                           const Deadline& deadline) const;

  std::optional<std::string> cache_lookup(const std::string& key,
                                          const EngineEpoch& epoch)
      TACC_EXCLUDES(cache_mu_);
  void cache_insert(const std::string& key, const EngineEpoch& epoch,
                    const std::string& payload) TACC_EXCLUDES(cache_mu_);

  const db::Table& jobs_;
  const tsdb::Store* store_;
  QueryEngineOptions options_;

  mutable util::Mutex cache_mu_;
  /// LRU: most recent at the front; index_ points into the list.
  std::list<std::pair<std::string, CacheEntry>> lru_ TACC_GUARDED_BY(cache_mu_);
  // Determinism audit (DT002): cache_index_ is lookup/erase-only — it is
  // never iterated, so its bucket order cannot reach results. Eviction
  // and cache observability walk `lru_`, whose order is recency (a
  // deterministic function of the request sequence), not hashing.
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, CacheEntry>>::iterator>
      cache_index_ TACC_GUARDED_BY(cache_mu_);

  // Lock-free counters (allowlisted in tools/lint/concurrency_allowlist.txt):
  // every access is a complete operation, nothing for a capability to guard.
  std::atomic<std::uint64_t> manual_epoch_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_evictions_{0};
  util::LatencyHistogram latency_;

  /// Declared last: destroyed first, so the pool drains and joins while
  /// every other member is still alive for in-flight tasks.
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Renders tsdb query results as deterministic text (17 significant
/// digits, so equal doubles render equal bytes): one series block per
/// group, points as "t value" lines. The Timeseries payload format.
std::string render_timeseries(const std::vector<tsdb::SeriesResult>& results);

}  // namespace tacc::portal

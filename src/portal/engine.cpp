#include "portal/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "portal/report.hpp"
#include "portal/views.hpp"
#include "util/table.hpp"

namespace tacc::portal {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Renders a double so that equal values produce equal bytes and distinct
/// values stay distinct (17 significant digits round-trips IEEE doubles).
std::string exact_real(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Field separator inside cache keys; never appears in user input that
/// matters (queries containing it simply canonicalize to themselves).
constexpr char kSep = '\x1f';

void append_portal_query(std::string& key, const PortalQuery& q) {
  key += q.jobid ? std::to_string(*q.jobid) : std::string("-");
  key += kSep;
  key += q.user.value_or("-");
  key += kSep;
  key += q.exe.value_or("-");
  key += kSep;
  key += q.queue.value_or("-");
  key += kSep;
  key += q.status.value_or("-");
  key += kSep;
  key += std::to_string(q.date_start);
  key += kSep;
  key += std::to_string(q.date_end);
  key += kSep;
  key += q.min_runtime_s ? exact_real(*q.min_runtime_s) : std::string("-");
  key += kSep;
  // Search fields are a conjunction: order does not change the result, so
  // canonicalize it away.
  std::vector<std::string> fields = q.search_fields;
  std::sort(fields.begin(), fields.end());
  for (const auto& f : fields) {
    key += f;
    key += kSep;
  }
}

void append_ts_query(std::string& key, const tsdb::Query& q) {
  key += q.metric;
  key += kSep;
  key += q.rate ? '1' : '0';
  key += kSep;
  key += tsdb::canonical_tags(q.filters);
  key += kSep;
  for (const auto& g : q.group_by) {  // order is semantic: keep it
    key += g;
    key += kSep;
  }
  key += std::to_string(static_cast<int>(q.aggregator));
  key += kSep;
  key += std::to_string(q.downsample);
  key += kSep;
  key += std::to_string(static_cast<int>(q.downsample_aggregator));
  key += kSep;
  key += std::to_string(q.start);
  key += kSep;
  key += std::to_string(q.end);
}

/// What a request shed at admission resolves to.
QueryResult shed_result() {
  QueryResult r;
  r.status = QueryStatus::Overloaded;
  return r;
}

}  // namespace

const char* to_string(QueryStatus status) noexcept {
  switch (status) {
    case QueryStatus::Ok:
      return "ok";
    case QueryStatus::Overloaded:
      return "overloaded";
    case QueryStatus::TimedOut:
      return "timed_out";
    case QueryStatus::Error:
      return "error";
  }
  return "unknown";
}

/// Wall-clock budget: expired() is the cooperative check every execution
/// stage polls. A default-constructed Deadline never expires.
///
/// Determinism audit (DT001): Deadline::* and run_admitted are
/// allowlisted — wall time is compared against the budget and reported
/// in QueryStats timing fields, but results come from the store alone.
struct QueryEngine::Deadline {
  bool limited = false;
  SteadyClock::time_point due{};

  static Deadline after(std::int64_t ns) {
    Deadline d;
    if (ns >= 0) {
      d.limited = true;
      d.due = SteadyClock::now() + std::chrono::nanoseconds(ns);
    }
    return d;
  }
  bool expired() const { return limited && SteadyClock::now() >= due; }
};

/// The materialized Fig. 4 summaries: one flat array per panel, indexed by
/// RowId, values pre-scaled exactly as views::query_histograms scales them.
/// Immutable once built; shared_ptr lets queries keep using a snapshot
/// while a newer epoch replaces it.
struct QueryEngine::Summaries {
  EngineEpoch epoch;
  std::vector<std::array<double, 4>> value;  // [row][panel]
  std::vector<std::array<bool, 4>> present;  // false = SQL NULL, skip
};

QueryEngine::QueryEngine(const db::Table& jobs, const tsdb::Store* store,
                         const QueryEngineOptions& options)
    : jobs_(jobs),
      store_(store),
      options_(options),
      pool_(std::make_unique<util::ThreadPool>(options.workers)) {}

QueryEngine::~QueryEngine() = default;

EngineEpoch QueryEngine::current_epoch() const noexcept {
  EngineEpoch e;
  e.store = store_ != nullptr ? store_->ingest_epoch() : 0;
  e.jobs_rows = jobs_.num_rows();
  e.manual = manual_epoch_.load(std::memory_order_acquire);
  return e;
}

void QueryEngine::invalidate_jobs() noexcept {
  manual_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

std::string QueryEngine::cache_key(const QueryRequest& r) {
  std::string key;
  switch (r.kind) {
    case QueryRequest::Kind::Search:
      key = "search";
      key += kSep;
      key += std::to_string(r.limit);
      key += kSep;
      append_portal_query(key, r.query);
      break;
    case QueryRequest::Kind::FlaggedList:
      key = "flagged";
      key += kSep;
      key += std::to_string(r.limit);
      key += kSep;
      append_portal_query(key, r.query);
      break;
    case QueryRequest::Kind::Histograms:
      key = "histograms";
      key += kSep;
      key += std::to_string(r.bins);
      key += kSep;
      append_portal_query(key, r.query);
      break;
    case QueryRequest::Kind::JobDetail:
      key = "detail";
      key += kSep;
      key += std::to_string(r.jobid);
      break;
    case QueryRequest::Kind::DailyReport:
      key = "daily";
      key += kSep;
      key += std::to_string(r.day);
      break;
    case QueryRequest::Kind::Timeseries:
      key = "timeseries";
      key += kSep;
      append_ts_query(key, r.ts);
      break;
  }
  return key;
}

bool QueryEngine::admit() noexcept {
  const std::uint64_t ahead =
      in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.queue_limit != 0 && ahead >= options_.queue_limit) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::future<QueryResult> QueryEngine::submit(const QueryRequest& request) {
  if (!admit()) {
    std::promise<QueryResult> shed;
    shed.set_value(shed_result());
    return shed.get_future();
  }
  return pool_->submit(
      [this, request]() -> QueryResult { return run_admitted(request); });
}

QueryResult QueryEngine::execute(const QueryRequest& request) {
  if (!admit()) return shed_result();
  return run_admitted(request);
}

QueryResult QueryEngine::run_admitted(const QueryRequest& request) {
  if (options_.before_execute) options_.before_execute();
  const auto t0 = SteadyClock::now();
  // A result is keyed on the part of the epoch its kind reads: a
  // Timeseries request reads only the store, every other kind only the
  // jobs table (and the summaries built from it).
  EngineEpoch epoch = current_epoch();
  if (request.kind == QueryRequest::Kind::Timeseries) {
    epoch.jobs_rows = 0;
    epoch.manual = 0;
  } else {
    epoch.store = 0;
  }
  const Deadline deadline = Deadline::after(
      request.deadline_ns >= 0 ? request.deadline_ns
      : options_.default_deadline_ns > 0 ? options_.default_deadline_ns
                                         : -1);
  const bool cacheable = options_.cache_entries > 0;

  QueryResult result;
  if (cacheable) {
    const std::string key = cache_key(request);
    if (auto hit = cache_lookup(key, epoch)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      result.status = QueryStatus::Ok;
      result.payload = std::move(*hit);
      result.cached = true;
    } else {
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      result = execute_cold(request, epoch, deadline);
      if (result.status == QueryStatus::Ok) {
        cache_insert(key, epoch, result.payload);
      }
    }
  } else {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    result = execute_cold(request, epoch, deadline);
  }

  switch (result.status) {
    case QueryStatus::Ok:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case QueryStatus::TimedOut:
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  latency_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - t0)
          .count()));
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return result;
}

QueryResult QueryEngine::execute_cold(const QueryRequest& request,
                                      const EngineEpoch& epoch,
                                      const Deadline& deadline) {
  QueryResult out;
  const auto timed_out = [&out] {
    out = QueryResult{};
    out.status = QueryStatus::TimedOut;
  };
  const auto error = [&out](std::string message) {
    out = QueryResult{};
    out.status = QueryStatus::Error;
    out.error = std::move(message);
  };
  try {
    if (deadline.expired()) {
      timed_out();
      return out;
    }
    switch (request.kind) {
      case QueryRequest::Kind::Search: {
        const auto rows = run_query(jobs_, request.query);
        if (deadline.expired()) {
          timed_out();
          return out;
        }
        out.payload = job_list_view(jobs_, rows, request.limit);
        break;
      }
      case QueryRequest::Kind::FlaggedList: {
        const auto rows = run_query(jobs_, request.query);
        if (deadline.expired()) {
          timed_out();
          return out;
        }
        out.payload = flagged_sublist(jobs_, rows, request.limit);
        break;
      }
      case QueryRequest::Kind::Histograms: {
        const auto summaries = summaries_for(epoch);
        const auto rows = run_query(jobs_, request.query);
        const auto panels = histogram_panels();
        std::vector<std::vector<double>> panel_values(panels.size());
        for (std::size_t p = 0; p < panels.size(); ++p) {
          if (deadline.expired()) {
            timed_out();
            return out;
          }
          auto& values = panel_values[p];
          values.reserve(rows.size());
          for (const db::RowId id : rows) {
            if (summaries->present[id][p]) {
              values.push_back(summaries->value[id][p]);
            }
          }
        }
        if (deadline.expired()) {
          timed_out();
          return out;
        }
        out.payload = render_query_histograms(panel_values, request.bins);
        break;
      }
      case QueryRequest::Kind::JobDetail: {
        const auto rows = jobs_.select(
            {{"jobid", db::Op::Eq, db::Value(request.jobid)}});
        if (rows.empty()) {
          error("no such job: " + std::to_string(request.jobid));
          return out;
        }
        if (deadline.expired()) {
          timed_out();
          return out;
        }
        out.payload = job_detail_view(jobs_, rows.front());
        break;
      }
      case QueryRequest::Kind::DailyReport: {
        out.payload = daily_report(jobs_, request.day);
        if (deadline.expired()) {
          timed_out();
          return out;
        }
        break;
      }
      case QueryRequest::Kind::Timeseries: {
        if (store_ == nullptr) {
          error("no time-series store attached to this engine");
          return out;
        }
        const auto results = store_->query(request.ts);
        if (deadline.expired()) {
          timed_out();
          return out;
        }
        out.payload = render_timeseries(results);
        break;
      }
    }
    if (deadline.expired()) {
      timed_out();
      return out;
    }
  } catch (const std::exception& e) {
    error(e.what());
  }
  return out;
}

std::shared_ptr<const QueryEngine::Summaries> QueryEngine::summaries_for(
    const EngineEpoch& epoch) {
  {
    util::MutexLock lock(summaries_mu_);
    if (summaries_ != nullptr && summaries_->epoch == epoch) {
      return summaries_;
    }
  }
  // Rebuild outside the fast-path check but under the lock, so concurrent
  // histogram queries at a new epoch rebuild once and the rest wait for
  // the result instead of duplicating O(jobs) work.
  util::MutexLock lock(summaries_mu_);
  if (summaries_ != nullptr && summaries_->epoch == epoch) {
    return summaries_;
  }
  auto built = std::make_shared<Summaries>();
  built->epoch = epoch;
  const auto panels = histogram_panels();
  const std::size_t rows = jobs_.num_rows();
  built->value.resize(rows);
  built->present.resize(rows);
  std::array<std::size_t, 4> column{};
  for (std::size_t p = 0; p < panels.size(); ++p) {
    column[p] = jobs_.column_index(panels[p].column);
  }
  for (db::RowId id = 0; id < rows; ++id) {
    const db::Row& row = jobs_.row(id);
    for (std::size_t p = 0; p < panels.size(); ++p) {
      const db::Value& v = row[column[p]];
      built->present[id][p] = !v.is_null();
      built->value[id][p] = v.is_null() ? 0.0 : v.as_real() * panels[p].scale;
    }
  }
  summary_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  summaries_ = std::move(built);
  return summaries_;
}

std::optional<std::string> QueryEngine::cache_lookup(const std::string& key,
                                                     const EngineEpoch& epoch) {
  util::MutexLock lock(cache_mu_);
  const auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return std::nullopt;
  if (!(it->second->second.epoch == epoch)) {
    // Stale: what this entry reads moved since it was cached.
    lru_.erase(it->second);
    cache_index_.erase(it);
    cache_evictions_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second.payload;
}

void QueryEngine::cache_insert(const std::string& key,
                               const EngineEpoch& epoch,
                               const std::string& payload) {
  util::MutexLock lock(cache_mu_);
  const auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    it->second->second = CacheEntry{epoch, payload};
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, CacheEntry{epoch, payload});
  cache_index_[key] = lru_.begin();
  while (lru_.size() > options_.cache_entries) {
    cache_index_.erase(lru_.back().first);
    lru_.pop_back();
    cache_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

EngineStats QueryEngine::stats() const {
  EngineStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.cache_evictions = cache_evictions_.load(std::memory_order_relaxed);
  s.summary_rebuilds = summary_rebuilds_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.p50_ns = latency_.percentile_ns(50.0);
  s.p99_ns = latency_.percentile_ns(99.0);
  return s;
}

std::string QueryEngine::stats_table() const {
  const EngineStats s = stats();
  util::TextTable t;
  t.header({"Counter", "Value"});
  const std::pair<const char*, std::uint64_t> rows[] = {
      {"queries_admitted", s.admitted},
      {"queries_shed", s.shed},
      {"queries_completed", s.completed},
      {"queries_timed_out", s.timed_out},
      {"queries_failed", s.failed},
      {"queries_in_flight", s.in_flight},
      {"cache_hits", s.cache_hits},
      {"cache_misses", s.cache_misses},
      {"cache_evictions", s.cache_evictions},
      {"summary_rebuilds", s.summary_rebuilds},
      {"p50_ns", s.p50_ns},
      {"p99_ns", s.p99_ns},
  };
  for (const auto& [name, value] : rows) {
    t.row({name, std::to_string(value)});
  }
  return t.render();
}

std::string render_timeseries(const std::vector<tsdb::SeriesResult>& results) {
  std::string out;
  char buf[80];
  for (const auto& r : results) {
    out += "series{";
    bool first = true;
    for (const auto& [k, v] : r.group_tags) {
      if (!first) out += ',';
      out += k;
      out += '=';
      out += v;
      first = false;
    }
    out += "} points=";
    out += std::to_string(r.points.size());
    out += '\n';
    for (const auto& p : r.points) {
      std::snprintf(buf, sizeof buf, "  %lld %.17g\n",
                    static_cast<long long>(p.time), p.value);
      out += buf;
    }
  }
  return out;
}

}  // namespace tacc::portal

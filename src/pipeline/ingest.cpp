#include "pipeline/ingest.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "collect/rawview.hpp"
#include "pipeline/pipeline_metrics.hpp"
#include "util/clock.hpp"

namespace tacc::pipeline {

db::Table& create_jobs_table(db::Database& database) {
  using db::Column;
  using db::ValueType;
  std::vector<Column> columns = {
      {"jobid", ValueType::Int},      {"user", ValueType::Text},
      {"account", ValueType::Text},
      {"jobname", ValueType::Text},   {"exe", ValueType::Text},
      {"queue", ValueType::Text},     {"status", ValueType::Text},
      {"nodes", ValueType::Int},      {"wayness", ValueType::Int},
      {"submit", ValueType::Int},     {"start", ValueType::Int},
      {"end", ValueType::Int},        {"runtime", ValueType::Real},
      {"queue_wait", ValueType::Real}, {"node_hours", ValueType::Real},
      {"flags", ValueType::Text},
  };
  for (const auto& label : JobMetrics::labels()) {
    columns.push_back({label, ValueType::Real});
  }
  auto& table = database.create_table(kJobsTable, std::move(columns));
  table.create_index("exe");
  table.create_index("user");
  table.create_index("queue");
  return table;
}

db::RowId ingest_job(db::Table& jobs, const workload::AccountingRecord& acct,
                     const JobMetrics& metrics,
                     const std::vector<Flag>& flags) {
  const double runtime_s = util::to_seconds(acct.end_time - acct.start_time);
  const double wait_s = util::to_seconds(acct.start_time - acct.submit_time);
  db::Row row = {
      acct.jobid,
      acct.user,
      acct.account,
      acct.jobname,
      acct.exe,
      acct.queue,
      acct.status,
      acct.nodes,
      acct.wayness,
      acct.submit_time / util::kSecond,
      acct.start_time / util::kSecond,
      acct.end_time / util::kSecond,
      runtime_s,
      wait_s,
      runtime_s / 3600.0 * acct.nodes,
      flag_names(flags),
  };
  for (const auto& f : JobMetrics::fields()) {
    const double v = metrics.*f.value;
    if (std::isnan(v)) {
      row.emplace_back();  // NULL
    } else {
      row.emplace_back(v);
    }
  }
  return jobs.insert(std::move(row));
}

std::size_t ingest_from_archive(
    db::Database& database, const transport::RawArchive& archive,
    const std::vector<workload::AccountingRecord>& accounting) {
  auto& jobs = database.has_table(kJobsTable)
                   ? database.table(kJobsTable)
                   : create_jobs_table(database);
  std::size_t ingested = 0;
  for (const auto& acct : accounting) {
    const JobData data = extract_job(archive, acct);
    if (data.hosts.empty()) continue;
    const JobMetrics metrics = compute_metrics(data);
    const auto flags = evaluate_flags(acct, metrics);
    ingest_job(jobs, acct, metrics, flags);
    ++ingested;
  }
  return ingested;
}

namespace {

/// Prefix of every generated metric name: <prefix>.<type>.<event>.
constexpr std::string_view kMetricPrefix = "taccstats";

constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// One host's way into the store, shared by the archive and text loads.
/// It is a record sink (RecordViewParser, RawArchive::replay): record()
/// once per record, then block() once per data row of that record. Points
/// are staged per series and put with one Store::put at the first record
/// boundary after batch_points are staged; flush() puts the rest.
struct HostSink final : collect::RecordSink {
  HostSink(tsdb::Store& s, std::string_view h, std::size_t batch,
           PipelineMetrics* m)
      : store(s), host(h), batch_points(batch), metrics(m) {}

  /// One series' staging slot. The series is resolved in the store at
  /// the slot's first put, so points staged but never put (a text ingest
  /// that fails first) create no series.
  struct Slot {
    std::string metric;
    tsdb::TagSet tags;
    tsdb::Store::Handle series;
    std::vector<tsdb::DataPoint> points;
  };

  tsdb::Store& store;
  std::string_view host;
  std::size_t batch_points;
  PipelineMetrics* metrics;

  std::vector<Slot> slots;
  /// Slots holding staged points, in first-point order since the last
  /// flush: a flush visits these, not every slot of the host.
  std::vector<std::uint32_t> staged;
  std::vector<tsdb::Store::Run> runs;  // reused put scratch
  // (type \1 device) -> per-event slots: entry i holds the slot index for
  // schema event i, kNoSlot until its first point. One hash lookup per
  // data row instead of one per point.
  // Determinism audit (DT002): `index` is lookup-only (find/emplace) and
  // never iterated — output order comes from `slots` and `staged`, which
  // append in first-point order, i.e. the deterministic order of the
  // parsed raw log. The store keys every series under Shard::metrics (an ordered
  // std::map), so archive bytes never see this container's bucket order.
  std::unordered_map<std::string, std::vector<std::uint32_t>> index;
  std::size_t staged_points = 0;
  std::size_t points = 0;    // put into the store so far
  std::size_t records = 0;   // records seen
  std::uint64_t put_ns = 0;  // time in Store calls (only with metrics)
  std::string key;           // reused lookup scratch
  util::SimTime time = 0;    // the current record's timestamp

  void record(const collect::RecordView& r) override {
    if (staged_points >= batch_points) flush();
    time = r.time;
    ++records;
  }

  /// Stages every (event, value) of one data block. A block whose type has
  /// no schema (archived without a header that names it) is skipped.
  /// `values` beyond the schema arity are ignored; missing trailing values
  /// stage nothing (so a series is only ever created by an actual point).
  void block(const collect::RawBlockView& b) override {
    if (b.schema == nullptr) return;
    const collect::Schema& schema = *b.schema;
    const std::size_t n = std::min(b.values.size(), schema.size());
    if (n == 0) return;
    key.assign(b.type);
    key += '\1';
    key += b.device;
    auto it = index.find(key);
    if (it == index.end()) {
      it = index
               .emplace(key,
                        std::vector<std::uint32_t>(schema.size(), kNoSlot))
               .first;
    }
    std::vector<std::uint32_t>& ids = it->second;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t s = ids[i];
      if (s == kNoSlot) {
        const std::string& event = schema.entry(i).key;
        Slot& slot = slots.emplace_back();
        slot.metric.reserve(kMetricPrefix.size() + b.type.size() +
                            event.size() + 2);
        slot.metric += kMetricPrefix;
        slot.metric += '.';
        slot.metric += b.type;
        slot.metric += '.';
        slot.metric += event;
        slot.tags = {{"host", std::string(host)},
                     {"type", std::string(b.type)},
                     {"device", std::string(b.device)},
                     {"event", event}};
        s = static_cast<std::uint32_t>(slots.size() - 1);
        ids[i] = s;
      }
      std::vector<tsdb::DataPoint>& run = slots[s].points;
      if (run.empty()) staged.push_back(s);
      run.push_back({time, static_cast<double>(b.values[i])});
      ++staged_points;
    }
  }

  /// Puts every staged point into the store (no-op when none are staged).
  void flush() {
    if (staged_points == 0) return;
    util::WallTimer timer;
    runs.clear();
    for (const std::uint32_t s : staged) {
      Slot& slot = slots[s];
      if (!slot.series) slot.series = store.series(slot.metric, slot.tags);
      runs.push_back({slot.series, slot.points});
    }
    store.put(runs);
    if (metrics != nullptr) {
      const auto ns = static_cast<std::uint64_t>(timer.elapsed_ns());
      metrics->add_put_time_ns(ns);
      metrics->add_batches(1);
      put_ns += ns;
    }
    for (const std::uint32_t s : staged) slots[s].points.clear();
    staged.clear();
    points += staged_points;
    staged_points = 0;
  }
};

}  // namespace

TsdbIngestStats ingest_archive_tsdb(tsdb::Store& store,
                                    const transport::RawArchive& archive,
                                    util::ThreadPool* pool,
                                    const TsdbIngestOptions& options) {
  const auto hosts = archive.hosts();
  PipelineMetrics* metrics = options.metrics;
  std::atomic<std::size_t> total_series{0};
  std::atomic<std::size_t> total_points{0};

  const auto load = [&](const std::string& host) {
    util::WallTimer host_timer;
    HostSink sink(store, host, options.batch_points, metrics);
    archive.replay(host, sink);
    sink.flush();
    total_points.fetch_add(sink.points, std::memory_order_relaxed);
    total_series.fetch_add(sink.slots.size(), std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->add_records(sink.records);
      metrics->add_points(sink.points);
      const auto total_ns = static_cast<std::uint64_t>(host_timer.elapsed_ns());
      metrics->add_build_time_ns(total_ns > sink.put_ns ? total_ns - sink.put_ns
                                                        : 0);
    }
  };

  // Each host replays under its own archive lock, so pool workers read
  // different hosts side by side.
  if (pool != nullptr && hosts.size() > 1) {
    pool->parallel_for(hosts.size(),
                       [&](std::size_t hi) { load(hosts[hi]); });
  } else {
    for (const auto& host : hosts) load(host);
  }
  if (options.seal) store.seal_all();

  TsdbIngestStats stats;
  stats.hosts = hosts.size();
  stats.series = total_series.load();
  stats.points = total_points.load();
  return stats;
}

TsdbIngestStats ingest_text_tsdb(tsdb::Store& store, std::string_view text,
                                 const TsdbIngestOptions& options) {
  PipelineMetrics* metrics = options.metrics;
  collect::HostLog header;
  const std::size_t body_start = header.parse_header(text);

  collect::RecordViewParser parser(options.scan);
  HostSink sink(store, header.hostname, options.batch_points, metrics);
  util::WallTimer parse_timer;
  const auto body = parser.parse_body(header, text.substr(body_start), sink);
  sink.flush();
  if (metrics != nullptr) {
    const auto total_ns = static_cast<std::uint64_t>(parse_timer.elapsed_ns());
    metrics->add_bytes_read(body.bytes);
    metrics->add_lines(body.lines);
    metrics->add_records(body.records);
    metrics->add_points(sink.points);
    metrics->add_allocations(body.allocations);
    metrics->add_parse_time_ns(total_ns > sink.put_ns ? total_ns - sink.put_ns
                                                      : 0);
  }
  if (options.seal) store.seal_all();

  TsdbIngestStats stats;
  stats.hosts = 1;
  stats.series = sink.slots.size();
  stats.points = sink.points;
  return stats;
}

}  // namespace tacc::pipeline

// The columnar raw archive (transport::RawArchive).
//
// * Golden fingerprints: for one seeded flat, tree, cron and chaos day, a
//   digest of every host's serialized log, of the jobs table, of the tsdb
//   query results and of ResilienceStats, pinned to the values the
//   record-per-struct archive produced. The determinism tests compare two
//   runs of the same code, so they cannot see a change of representation;
//   these digests can.
// * The replay: what log() materializes is what was appended (a block
//   whose type has no schema, a block across two value chunks, records
//   skipped by keep()), and the tsdb load skips schema-less blocks.
// * The gauge: resident bytes per stored value on a seeded daemon-mode day.
// * Concurrency (run under TSan in CI): consumer-style appends racing the
//   Table I and tsdb-load replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/jobmap.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tacc {
namespace {

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;  // 2016-01-04

simhw::Cluster make_cluster(int n) {
  simhw::ClusterConfig cc;
  cc.num_nodes = n;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  return simhw::Cluster(cc);
}

workload::JobSpec job_spec(long id, int nodes, util::SimTime start,
                           util::SimTime runtime) {
  workload::JobSpec job;
  job.jobid = id;
  job.user = "alice";
  job.uid = 1001;
  job.profile = "wrf";
  job.exe = "wrf.exe";
  job.nodes = nodes;
  job.wayness = 8;
  job.submit_time = start - util::kMinute;
  job.start_time = start;
  job.end_time = start + runtime;
  return job;
}

/// The chaos day's fault schedule: every site but the queue limit, whose
/// dead-letter membership depends on the live consumer's timing.
std::shared_ptr<util::FaultPlan> chaos_plan(std::uint64_t seed) {
  auto plan = std::make_shared<util::FaultPlan>(seed);
  util::FaultSpec publish;
  publish.drop_rate = 0.05;
  publish.duplicate_rate = 0.02;
  publish.delay_rate = 0.1;
  publish.delay_min = util::kSecond;
  publish.delay_max = 30 * util::kSecond;
  plan->set(std::string(util::kFaultBrokerPublish), publish);
  util::FaultSpec daemon;
  daemon.error_rate = 0.02;
  daemon.outages.push_back({kStart + util::kHour, kStart + 2 * util::kHour});
  plan->set(std::string(util::kFaultDaemonPublish), daemon);
  util::FaultSpec crash;
  crash.error_rate = 0.05;
  plan->set(std::string(util::kFaultConsumerCrash), crash);
  return plan;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string render_table(const db::Table& table) {
  std::string out;
  char buf[32];
  for (db::RowId id = 0; id < table.num_rows(); ++id) {
    for (const db::Value& v : table.row(id)) {
      switch (v.type()) {
        case db::ValueType::Null:
          out += "NULL";
          break;
        case db::ValueType::Int:
          out += std::to_string(v.as_int());
          break;
        case db::ValueType::Real:
          std::snprintf(buf, sizeof buf, "%.17g", v.as_real());
          out += buf;
          break;
        case db::ValueType::Text:
          out += v.as_text();
          break;
      }
      out += '\t';
    }
    out += '\n';
  }
  return out;
}

/// Every stored series, one query per (type, event) of the hosts'
/// schemas, grouped by host and device.
std::string render_tsdb(const tsdb::Store& store,
                        const transport::RawArchive& archive) {
  std::vector<std::string> metrics;
  for (const auto& host : archive.hosts()) {
    for (const auto& schema : archive.log(host).schemas) {
      for (std::size_t i = 0; i < schema.size(); ++i) {
        metrics.push_back("taccstats." + schema.type() + "." +
                          schema.entry(i).key);
      }
    }
  }
  std::sort(metrics.begin(), metrics.end());
  metrics.erase(std::unique(metrics.begin(), metrics.end()), metrics.end());
  std::string out;
  char buf[32];
  for (const auto& metric : metrics) {
    tsdb::Query q;
    q.metric = metric;
    q.group_by = {"host", "device"};
    for (const auto& series : store.query(q)) {
      out += metric;
      for (const auto& [k, v] : series.group_tags) out += " " + k + "=" + v;
      out += '\n';
      for (const auto& p : series.points) {
        std::snprintf(buf, sizeof buf, "%.17g", p.value);
        out += std::to_string(p.time) + ' ' + buf + '\n';
      }
    }
  }
  return out;
}

std::string render_resilience(const util::ResilienceStats& r) {
  std::string out;
  for (const std::uint64_t v :
       {r.injected_drops, r.injected_duplicates, r.injected_delays,
        r.injected_errors, r.retries, r.spooled, r.replayed, r.spool_dropped,
        r.dead_lettered, r.requeued, r.deduped, r.paused_windows,
        r.resumed_windows}) {
    out += std::to_string(v) + ' ';
  }
  return out;
}

/// The archived ingest times, which serialize() leaves out.
std::string render_latency(const util::RunningStat& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu %.17g %.17g", s.count(), s.sum(),
                s.max());
  return buf;
}

struct DayDigest {
  std::string archive;
  std::string jobs;
  std::string tsdb;
  std::string resilience;
  std::string latency;
  std::size_t records = 0;
};

enum class Day { Flat, Tree, Cron, Chaos };

/// One seeded day: two jobs that overlap on node 1 (a shared node), the
/// epilogs, then a drain (cron: through the next staging window).
DayDigest run_day(Day day) {
  auto cluster = make_cluster(4);
  core::MonitorConfig mc;
  mc.mode = day == Day::Cron ? core::TransportMode::Cron
                             : core::TransportMode::Daemon;
  mc.start = kStart;
  mc.online_analysis = false;
  if (day == Day::Tree) {
    mc.topology.leaf_brokers = 4;
    mc.topology.fanout = 2;
    mc.topology.batch_records = 8;
  }
  if (day == Day::Chaos) mc.fault_plan = chaos_plan(2024);
  core::ClusterMonitor monitor(cluster, mc);

  const auto a = job_spec(500, 2, kStart, 3 * util::kHour);
  const auto b = job_spec(501, 3, kStart + util::kHour, 2 * util::kHour);
  monitor.job_started(a, {0, 1});
  monitor.advance_to(b.start_time);
  monitor.job_started(b, {1, 2, 3});
  monitor.advance_to(a.end_time);
  monitor.job_ended(a.jobid);
  monitor.job_ended(b.jobid);
  monitor.advance_to(day == Day::Cron ? kStart + util::kDay + 6 * util::kHour
                                      : kStart + 4 * util::kHour);
  monitor.drain();

  const auto& archive = monitor.archive();
  std::string logs;
  for (const auto& host : archive.hosts()) {
    logs += "== " + host + " ==\n";
    logs += archive.log(host).serialize();
  }

  const auto name = [&](std::size_t i) { return cluster.node(i).hostname(); };
  db::Database database;
  pipeline::ingest_from_archive(
      database, archive,
      {workload::to_accounting(a, {name(0), name(1)}),
       workload::to_accounting(b, {name(1), name(2), name(3)})});

  tsdb::Store store(tsdb::StoreOptions{});
  pipeline::ingest_archive_tsdb(store, archive);

  DayDigest out;
  out.archive = hex(util::fnv1a(logs));
  out.jobs = hex(util::fnv1a(render_table(database.table(pipeline::kJobsTable))));
  out.tsdb = hex(util::fnv1a(render_tsdb(store, archive)));
  out.resilience = render_resilience(monitor.resilience_stats());
  out.latency = render_latency(archive.latency());
  out.records = archive.total_records();
  return out;
}

void expect_golden(const DayDigest& d, const DayDigest& golden) {
  EXPECT_EQ(d.archive, golden.archive);
  EXPECT_EQ(d.jobs, golden.jobs);
  EXPECT_EQ(d.tsdb, golden.tsdb);
  EXPECT_EQ(d.resilience, golden.resilience);
  EXPECT_EQ(d.latency, golden.latency);
  EXPECT_EQ(d.records, golden.records);
}

TEST(ArchiveGolden, FlatDay) {
  expect_golden(run_day(Day::Flat),
                {"9b593ac8ba21648a", "e6a0863def7016a5", "ebd2c419c5806215",
                 "0 0 0 0 0 0 0 0 0 0 0 0 0 ", "106 0 0", 106});
}

TEST(ArchiveGolden, TreeDay) {
  expect_golden(run_day(Day::Tree),
                {"9b593ac8ba21648a", "e6a0863def7016a5", "ebd2c419c5806215",
                 "0 0 0 0 0 0 0 0 0 0 0 0 0 ", "106 0 0", 106});
}

TEST(ArchiveGolden, CronDay) {
  expect_golden(run_day(Day::Cron),
                {"aef550c502a51d20", "e6a0863def7016a5", "853948ceeefd3621",
                 "0 0 0 0 0 0 0 0 0 0 0 0 0 ", "586 30793200 99000", 586});
}

TEST(ArchiveGolden, ChaosDay) {
  expect_golden(run_day(Day::Chaos),
                {"9b593ac8ba21648a", "e6a0863def7016a5", "ebd2c419c5806215",
                 "4 1 12 109 86 27 27 0 0 3 4 0 0 ",
                 "106 224.03138300000001 28.789344", 106});
}

// ---- replay ----

const collect::Schema kCpu("cpu", {{"user", true, 64, "jiffies", 1.0},
                                   {"system", true, 64, "jiffies", 1.0}});

/// A host log with every shape the columns store: no, one and two job ids,
/// marks, an empty device, a block whose type ("ghost") has no schema, and
/// a 700-value block, which straddles a chunk of the value column.
collect::HostLog sample_log() {
  collect::HostLog log;
  log.hostname = "n1";
  log.arch = "hsw";
  log.schemas = {kCpu};
  for (long i = 0; i < 8; ++i) {
    collect::Record r;
    r.time = kStart + i * util::kMinute;
    if (i % 3 == 1) r.jobids = {7};
    if (i % 3 == 2) r.jobids = {7, 8};
    r.mark = i == 0 ? "begin" : i == 7 ? "end" : "";
    const auto v = static_cast<std::uint64_t>(i);
    r.blocks.push_back({"cpu", "0", {v, v + 1}});
    r.blocks.push_back({"cpu", "1", {v + 2, v + 3}});
    if (i % 2 == 0) r.blocks.push_back({"ghost", "", {v}});
    if (i == 5) {
      std::vector<std::uint64_t> wide(700);
      for (std::size_t k = 0; k < wide.size(); ++k) wide[k] = 1000 + k;
      r.blocks.push_back({"ghost", "wide", wide});
    }
    log.records.push_back(std::move(r));
  }
  return log;
}

void archive_log(transport::RawArchive& archive, const collect::HostLog& log) {
  archive.add_header(log.hostname, log.arch, log.schemas);
  for (const auto& r : log.records) archive.append(log.hostname, r, r.time);
}

TEST(RawArchiveReplay, MaterializesWhatWasAppended) {
  const auto want = sample_log();
  transport::RawArchive archive;
  archive_log(archive, want);
  const auto got = archive.log("n1");
  EXPECT_EQ(got.hostname, want.hostname);
  EXPECT_EQ(got.arch, want.arch);
  ASSERT_EQ(got.schemas.size(), 1u);
  EXPECT_EQ(got.schemas[0].spec_line(), kCpu.spec_line());
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.serialize(), want.serialize());

  bool visited = false;
  archive.visit_log("n1", [&](const collect::HostLog& log) {
    visited = true;
    EXPECT_EQ(log.records, want.records);
  });
  EXPECT_TRUE(visited);
  archive.visit_log("ghost", [](const collect::HostLog&) { FAIL(); });
  EXPECT_TRUE(archive.log("ghost").records.empty());
}

/// Records the calls of a replay that keeps only job 8's records.
class Job8Sink final : public collect::RecordSink {
 public:
  void header(const collect::HostLog& log) override { host = log.hostname; }
  bool keep(const collect::RecordView& r) override {
    return std::find(r.jobids.begin(), r.jobids.end(), 8) != r.jobids.end();
  }
  void record(const collect::RecordView& r) override {
    times.push_back(r.time);
  }
  void block(const collect::RawBlockView& b) override {
    rows.push_back(std::string(b.type) + "/" + std::string(b.device) + " " +
                   (b.schema ? "schema" : "none") + " " +
                   std::to_string(b.values.size()) + " " +
                   std::to_string(b.values.front()) + ".." +
                   std::to_string(b.values.back()));
  }

  std::string host;
  std::vector<util::SimTime> times;
  std::vector<std::string> rows;
};

TEST(RawArchiveReplay, KeepSkipsRecordsAndTheirValues) {
  transport::RawArchive archive;
  archive_log(archive, sample_log());
  Job8Sink sink;
  ASSERT_TRUE(archive.replay("n1", sink));
  EXPECT_EQ(sink.host, "n1");
  // Job 8 runs in records 2 and 5; the values read after each skipped
  // stretch are the kept records' own.
  EXPECT_EQ(sink.times, (std::vector<util::SimTime>{
                            kStart + 2 * util::kMinute,
                            kStart + 5 * util::kMinute}));
  EXPECT_EQ(sink.rows,
            (std::vector<std::string>{
                "cpu/0 schema 2 2..3", "cpu/1 schema 2 4..5",
                "ghost/ none 1 2..2", "cpu/0 schema 2 5..6",
                "cpu/1 schema 2 7..8", "ghost/wide none 700 1000..1699"}));

  Job8Sink unknown;
  EXPECT_FALSE(archive.replay("n9", unknown));
  EXPECT_TRUE(unknown.host.empty());
}

TEST(RawArchiveReplay, TsdbLoadSkipsBlocksWithoutSchema) {
  transport::RawArchive archive;
  archive_log(archive, sample_log());
  tsdb::Store store(tsdb::StoreOptions{});
  const auto stats = pipeline::ingest_archive_tsdb(store, archive);
  // Two cpu devices x two events, one point per record each.
  EXPECT_EQ(stats.series, 4u);
  EXPECT_EQ(stats.points, 4u * 8u);
  tsdb::Query q;
  q.metric = "taccstats.ghost.user";
  EXPECT_TRUE(store.query(q).empty());
}

// ---- gauge ----

TEST(RawArchiveUsage, CountsEveryValueAndStaysUnderTenBytesPerValue) {
  const auto log = sample_log();
  transport::RawArchive small;
  archive_log(small, log);
  std::size_t values = 0;
  for (const auto& r : log.records) {
    for (const auto& b : r.blocks) values += b.values.size();
  }
  EXPECT_EQ(small.usage().values, values);
  EXPECT_GE(small.usage().resident_bytes, 8 * values);

  // A seeded daemon-mode day: four nodes, one-minute records, two jobs.
  auto cluster = make_cluster(4);
  core::MonitorConfig mc;
  mc.start = kStart;
  mc.interval = util::kMinute;
  mc.online_analysis = false;
  core::ClusterMonitor monitor(cluster, mc);
  const auto a = job_spec(500, 2, kStart, 6 * util::kHour);
  const auto b = job_spec(501, 2, kStart + util::kHour, 4 * util::kHour);
  monitor.job_started(a, {0, 1});
  monitor.advance_to(b.start_time);
  monitor.job_started(b, {2, 3});
  monitor.advance_to(b.end_time);
  monitor.job_ended(b.jobid);
  monitor.advance_to(a.end_time);
  monitor.job_ended(a.jobid);
  monitor.drain();
  const auto usage = monitor.archive().usage();
  ASSERT_GT(usage.values, 0u);
  const double per_value =
      double(usage.resident_bytes) / double(usage.values);
  RecordProperty("bytes_per_value", std::to_string(per_value));
  EXPECT_GE(per_value, 8.0);
  EXPECT_LE(per_value, 10.0) << usage.resident_bytes << " bytes for "
                             << usage.values << " values";
}

// ---- concurrency ----

// A consumer-style writer appends frames (append_unique) to four hosts
// while a reader runs Table I (ingest_from_archive -> extract_job) and
// the tsdb load on a pool: every read is a replay under one host's lock.
TEST(RawArchiveConcurrency, AppendsRaceTableIAndTsdbReplays) {
  constexpr int kHosts = 4;
  constexpr int kRecords = 200;
  transport::RawArchive archive;
  const auto hostname = [](int h) { return "n" + std::to_string(h); };
  std::vector<workload::AccountingRecord> accounting;
  for (int h = 0; h < kHosts; ++h) {
    workload::AccountingRecord acct;
    acct.jobid = 100 + h;
    acct.hostnames = {hostname(h)};
    accounting.push_back(acct);
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kRecords; ++i) {
      for (int h = 0; h < kHosts; ++h) {
        collect::HostLog chunk;
        chunk.hostname = hostname(h);
        chunk.arch = "hsw";
        chunk.schemas = {kCpu};
        collect::Record r;
        r.time = kStart + i * util::kMinute;
        r.jobids = {100 + h};
        const auto v = static_cast<std::uint64_t>(i);
        r.blocks.push_back({"cpu", "0", {v, 2 * v}});
        chunk.records.push_back(std::move(r));
        archive.append_unique(hostname(h), {static_cast<std::uint64_t>(i)},
                              chunk, {0}, 0);
      }
    }
    done.store(true);
  });

  util::ThreadPool pool(2);
  std::size_t rounds = 0;
  while (!done.load() || rounds == 0) {
    db::Database database;
    pipeline::ingest_from_archive(database, archive, accounting);
    tsdb::Store store(tsdb::StoreOptions{});
    const auto stats = pipeline::ingest_archive_tsdb(store, archive, &pool);
    EXPECT_EQ(stats.points % 2, 0u);  // both events of every block
    (void)archive.usage();
    ++rounds;
  }
  writer.join();

  EXPECT_EQ(archive.total_records(), std::size_t{kHosts * kRecords});
  for (const auto& acct : accounting) {
    const auto job = pipeline::extract_job(archive, acct);
    ASSERT_EQ(job.hosts.size(), 1u);
    EXPECT_EQ(job.hosts[0].records.size(), std::size_t{kRecords});
  }
  tsdb::Store store(tsdb::StoreOptions{});
  EXPECT_EQ(pipeline::ingest_archive_tsdb(store, archive, &pool).points,
            std::size_t{2 * kHosts * kRecords});
}

}  // namespace
}  // namespace tacc

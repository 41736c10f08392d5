// Transport-equivalence property: the daemon and cron modes deliver the
// SAME records (the demand engine is deterministic and time-indexed), just
// at different times and with different loss behavior — so job metrics
// computed from either archive must agree exactly. Also: spooling an
// archive to disk and re-ingesting it must be metric-preserving, and
// extracting a job through the archive's filtering replay must match
// extracting it from snapshots of the host logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/monitor.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/jobmap.hpp"
#include "portal/views.hpp"
#include "transport/spool.hpp"
#include "xalt/xalt.hpp"

namespace tacc {
namespace {

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;

workload::JobSpec test_job() {
  workload::JobSpec job;
  job.jobid = 31337;
  job.user = "eve";
  job.uid = 10009;
  job.profile = "genomics_io";
  job.exe = "blastn";
  job.nodes = 2;
  job.wayness = 8;
  job.submit_time = kStart;
  job.start_time = kStart;
  job.end_time = kStart + 3 * util::kHour;
  return job;
}

/// Runs the same workload timeline under a transport mode and returns the
/// job's metrics computed from the central archive.
pipeline::JobMetrics run_mode(core::TransportMode mode,
                              transport::RawArchive** archive_out = nullptr,
                              core::ClusterMonitor** monitor_out = nullptr) {
  static std::vector<std::unique_ptr<simhw::Cluster>> clusters;
  static std::vector<std::unique_ptr<core::ClusterMonitor>> monitors;
  simhw::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  clusters.push_back(std::make_unique<simhw::Cluster>(cc));
  core::MonitorConfig mc;
  mc.mode = mode;
  mc.start = kStart;
  mc.online_analysis = false;
  monitors.push_back(
      std::make_unique<core::ClusterMonitor>(*clusters.back(), mc));
  auto& monitor = *monitors.back();

  const auto job = test_job();
  monitor.job_started(job, {0, 1});
  monitor.advance_to(job.end_time);
  monitor.job_ended(job.jobid);
  // Cron mode: run to the next staging window so everything lands.
  monitor.advance_to(kStart + util::kDay + 6 * util::kHour);
  monitor.drain();
  if (archive_out != nullptr) *archive_out = &monitor.archive();
  if (monitor_out != nullptr) *monitor_out = &monitor;

  const auto data = pipeline::extract_job(
      monitor.archive(),
      workload::to_accounting(job, {"c400-001", "c400-002"}));
  return compute_metrics(data);
}

void expect_same(const pipeline::JobMetrics& a,
                 const pipeline::JobMetrics& b) {
  const auto ma = a.as_map();
  const auto mb = b.as_map();
  for (const auto& label : pipeline::JobMetrics::labels()) {
    const double va = ma.at(label);
    const double vb = mb.at(label);
    if (std::isnan(va)) {
      EXPECT_TRUE(std::isnan(vb)) << label;
    } else {
      EXPECT_NEAR(va, vb, std::abs(va) * 1e-12 + 1e-12) << label;
    }
  }
}

TEST(TransportEquivalence, DaemonAndCronYieldIdenticalMetrics) {
  const auto daemon = run_mode(core::TransportMode::Daemon);
  const auto cron = run_mode(core::TransportMode::Cron);
  ASSERT_FALSE(std::isnan(daemon.CPU_Usage));
  ASSERT_FALSE(std::isnan(cron.CPU_Usage));
  expect_same(daemon, cron);
}

TEST(TransportEquivalence, SpoolRoundTripPreservesMetrics) {
  transport::RawArchive* archive = nullptr;
  const auto direct = run_mode(core::TransportMode::Daemon, &archive);
  ASSERT_NE(archive, nullptr);

  const auto root = std::filesystem::temp_directory_path() /
                    "ts_equiv_spool";
  std::filesystem::remove_all(root);
  transport::Spool spool(root);
  spool.write_archive(*archive);

  transport::RawArchive reloaded;
  for (const auto& day : spool.days()) spool.load_day(day, reloaded);
  EXPECT_EQ(reloaded.total_records(), archive->total_records());

  const auto data = pipeline::extract_job(
      reloaded,
      workload::to_accounting(test_job(), {"c400-001", "c400-002"}));
  expect_same(direct, compute_metrics(data));
  std::filesystem::remove_all(root);
}

// extract_job replays each host keeping only the job's records; each host it
// returns must carry the header of a snapshot of that log (archive.log)
// and only the job's records, in time order, with the hosts in accounting
// order. The archive has a node shared by two jobs, out-of-order appends,
// a listed host with no records for the job, a listed host the archive
// does not know, and a host with the job's records that the accounting
// does not list.
TEST(TransportEquivalence, ArchiveExtractionMatchesSnapshotExtraction) {
  const collect::Schema cpu("cpu", {{"user", true, 64, "jiffies", 1.0}});
  const collect::Schema llite("llite",
                              {{"read_bytes", true, 64, "bytes", 1.0}});
  transport::RawArchive archive;
  archive.add_header("n1", "hsw", {cpu});
  archive.add_header("n2", "skx", {cpu, llite});
  archive.add_header("n3", "hsw", {cpu});
  archive.add_header("n4", "hsw", {cpu});
  const auto append = [&archive](const std::string& host, long seconds,
                                 std::vector<long> jobids) {
    collect::Record record;
    record.time = kStart + seconds * util::kSecond;
    record.jobids = std::move(jobids);
    record.blocks.push_back(
        {"cpu", "0", {static_cast<std::uint64_t>(seconds)}});
    archive.append(host, record, record.time);
  };
  append("n1", 600, {7, 8});
  append("n1", 0, {7});
  append("n1", 1200, {8});
  append("n1", 300, {7, 8});
  append("n2", 900, {7});
  append("n2", 300, {7});
  append("n2", 600, {});
  append("n2", 0, {7});
  append("n3", 300, {8});
  append("n3", 0, {8});
  append("n4", 0, {7});

  struct Case {
    long jobid;
    std::vector<std::string> hostnames;
    // Wanted hosts in accounting order, each with its record times (s).
    std::vector<std::pair<std::string, std::vector<long>>> want;
  };
  const std::vector<Case> cases = {
      {7,
       {"n2", "ghost", "n3", "n1"},
       {{"n2", {0, 300, 900}}, {"n1", {0, 300, 600}}}},
      {8, {"n1", "n3"}, {{"n1", {300, 600, 1200}}, {"n3", {0, 300}}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.jobid);
    workload::AccountingRecord acct;
    acct.jobid = c.jobid;
    acct.hostnames = c.hostnames;
    const auto in_place = pipeline::extract_job(archive, acct);
    EXPECT_EQ(in_place.acct.jobid, c.jobid);
    ASSERT_EQ(in_place.hosts.size(), c.want.size());
    for (std::size_t h = 0; h < c.want.size(); ++h) {
      const auto& got = in_place.hosts[h];
      EXPECT_EQ(got.hostname, c.want[h].first);
      const collect::HostLog ref = archive.log(got.hostname);
      EXPECT_EQ(ref.arch, got.arch);
      ASSERT_EQ(ref.schemas.size(), got.schemas.size());
      for (std::size_t s = 0; s < got.schemas.size(); ++s) {
        EXPECT_EQ(ref.schemas[s].spec_line(), got.schemas[s].spec_line());
      }
      std::vector<long> times;
      for (const auto& record : got.records) {
        times.push_back((record.time - kStart) / util::kSecond);
        EXPECT_NE(std::find(record.jobids.begin(), record.jobids.end(),
                            c.jobid),
                  record.jobids.end());
      }
      EXPECT_EQ(times, c.want[h].second);
    }
  }
}

TEST(TransportEquivalence, DetailViewWithXaltEnvironment) {
  transport::RawArchive* archive = nullptr;
  (void)run_mode(core::TransportMode::Daemon, &archive);
  db::Database database;
  pipeline::ingest_from_archive(
      database, *archive,
      {workload::to_accounting(test_job(), {"c400-001", "c400-002"})});
  auto& xalt_table = xalt::create_xalt_table(database);
  xalt::ingest_record(xalt_table, xalt::synthesize_record(test_job()));

  const auto& jobs = database.table(pipeline::kJobsTable);
  const auto rows = jobs.select({});
  ASSERT_EQ(rows.size(), 1u);
  const auto view = portal::job_detail_view(jobs, rows[0], &xalt_table);
  EXPECT_NE(view.find("Environment (XALT):"), std::string::npos);
  EXPECT_NE(view.find("Modules:"), std::string::npos);
  EXPECT_NE(view.find("blast"), std::string::npos);

  // Without a record the section degrades gracefully.
  db::Database other;
  auto& empty_xalt = xalt::create_xalt_table(other);
  const auto view2 = portal::job_detail_view(jobs, rows[0], &empty_xalt);
  EXPECT_NE(view2.find("no record for this job"), std::string::npos);
}

}  // namespace
}  // namespace tacc

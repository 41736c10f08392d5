// Detail-page drill-downs: per-process view, pass/fail threshold report,
// and the group (project allocation) aggregation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pipeline/ingest.hpp"
#include "pipeline/minisim.hpp"
#include "portal/report.hpp"
#include "portal/views.hpp"
#include "workload/generator.hpp"

namespace tacc::portal {
namespace {

workload::JobSpec sample_job() {
  workload::JobSpec job;
  job.jobid = 555;
  job.user = "dana";
  job.uid = 10055;
  job.account = "TG-042";
  job.profile = "qchem";  // 2 procs x 8 threads per node
  job.exe = "qcprog.exe";
  job.nodes = 2;
  job.wayness = 2;
  job.start_time = util::make_time(2015, 12, 1);
  job.end_time = job.start_time + 2 * util::kHour;
  return job;
}

TEST(ProcessView, ShowsProcessesPerNode) {
  pipeline::MiniSimOptions opts;
  opts.samples = 2;
  const auto data = simulate_job(sample_job(), opts);
  const auto view = process_view(data);
  // 2 nodes x 2 ranks, with the executable name and thread count.
  EXPECT_NE(view.find("qcprog.exe"), std::string::npos);
  EXPECT_NE(view.find("c400-001"), std::string::npos);
  EXPECT_NE(view.find("c400-002"), std::string::npos);
  // qchem runs 8 threads per rank.
  EXPECT_NE(view.find("8"), std::string::npos);
  // Four data lines + header + separator.
  int lines = 0;
  for (const char c : view) lines += c == '\n';
  EXPECT_EQ(lines, 2 + 4);
}

TEST(ProcessView, HonorsLimit) {
  pipeline::MiniSimOptions opts;
  opts.samples = 2;
  auto job = sample_job();
  job.profile = "wrf";  // 16 procs per node
  job.exe = "wrf.exe";
  job.wayness = 16;
  const auto data = simulate_job(job, opts);
  const auto view = process_view(data, 5);
  EXPECT_NE(view.find("..."), std::string::npos);
}

TEST(ProcessView, EmptyWithoutPsBlocks) {
  pipeline::JobData data;
  const auto view = process_view(data);
  int lines = 0;
  for (const char c : view) lines += c == '\n';
  EXPECT_EQ(lines, 2);  // header + separator only
}

TEST(ThresholdReport, PassFailColumns) {
  db::Database database;
  auto& jobs = pipeline::create_jobs_table(database);
  workload::AccountingRecord acct;
  acct.jobid = 1;
  acct.user = "u";
  acct.exe = "x";
  acct.queue = "normal";
  acct.status = "COMPLETED";
  acct.nodes = 2;
  acct.start_time = 0;
  acct.end_time = util::kHour;
  pipeline::JobMetrics m;
  m.MetaDataRate = 500000.0;  // FAIL
  m.GigEBW = 0.01;            // PASS
  m.idle = 0.9;               // PASS
  m.catastrophe = 0.05;       // FAIL
  m.cpi = 1.0;                // PASS
  m.VecPercent = 0.4;         // PASS
  pipeline::ingest_job(jobs, acct, m, {});
  const auto report = threshold_report(jobs, 0);
  EXPECT_NE(report.find("metadata rate"), std::string::npos);
  EXPECT_NE(report.find("FAIL"), std::string::npos);
  EXPECT_NE(report.find("PASS"), std::string::npos);
  // largemem check is not applicable in the normal queue.
  EXPECT_EQ(report.find("largemem footprint"), std::string::npos);
  // MemUsage was NaN -> vectorization row still renders values.
  EXPECT_NE(report.find("vectorization"), std::string::npos);
}

TEST(ThresholdReport, LargememCheckOnlyInLargememQueue) {
  db::Database database;
  auto& jobs = pipeline::create_jobs_table(database);
  workload::AccountingRecord acct;
  acct.jobid = 2;
  acct.user = "u";
  acct.exe = "R";
  acct.queue = "largemem";
  acct.status = "COMPLETED";
  acct.nodes = 1;
  acct.start_time = 0;
  acct.end_time = util::kHour;
  pipeline::JobMetrics m;
  m.MemUsage = 10.0;  // of 1 TB: FAIL
  pipeline::ingest_job(jobs, acct, m, {});
  const auto report = threshold_report(jobs, 0);
  EXPECT_NE(report.find("largemem footprint"), std::string::npos);
  EXPECT_NE(report.find("FAIL"), std::string::npos);
  // NaN metrics render as n/a, never as PASS/FAIL.
  EXPECT_NE(report.find("n/a"), std::string::npos);
}

/// The Result cell of the report row labelled `label`; "" if no such row.
std::string row_result(const std::string& report, const std::string& label) {
  std::stringstream lines(report);
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with(label)) continue;
    std::stringstream cells(line);
    std::string cell;
    std::string last;
    while (cells >> cell) last = cell;
    return last;
  }
  return "";
}

/// Ingests one normal-queue job with `m` and the flags it raises; returns
/// its threshold report and sets `flags` to the stored flag names.
std::string report_for(const pipeline::JobMetrics& m, std::string& flags) {
  db::Database database;
  auto& jobs = pipeline::create_jobs_table(database);
  workload::AccountingRecord acct;
  acct.jobid = 3;
  acct.user = "u";
  acct.exe = "x";
  acct.queue = "normal";
  acct.status = "COMPLETED";
  acct.nodes = 2;
  acct.start_time = 0;
  acct.end_time = util::kHour;
  pipeline::ingest_job(jobs, acct, m, pipeline::evaluate_flags(acct, m));
  flags = jobs.at(0, "flags").as_text();
  return threshold_report(jobs, 0);
}

TEST(ThresholdReport, VectorizationIsJudgedOnlyForFpActiveJobs) {
  pipeline::JobMetrics m;
  m.VecPercent = 0.005;  // below low_vec ...
  m.flops = 0.05;        // ... but the job does almost no FP work
  std::string flags;
  std::string report = report_for(m, flags);
  EXPECT_EQ(flags, "");
  EXPECT_EQ(row_result(report, "vectorization"), "n/a");
  m.flops = 2.0;  // FP-active: the same VecPercent fails
  report = report_for(m, flags);
  EXPECT_EQ(flags, "low_vectorization");
  EXPECT_EQ(row_result(report, "vectorization"), "FAIL");
}

TEST(ThresholdReport, RampUpJobFailsTheRampUpRow) {
  pipeline::JobMetrics m;
  m.RampUp = 0.1;    // slow start ...
  m.TailDrop = 0.9;  // ... and a healthy end
  std::string flags;
  const std::string report = report_for(m, flags);
  EXPECT_EQ(flags, "cpu_ramp_up");
  EXPECT_EQ(row_result(report, "ramp-up"), "FAIL");
  EXPECT_EQ(row_result(report, "tail drop"), "PASS");
}

TEST(ThresholdReport, TailDropJobFailsTheTailDropRow) {
  pipeline::JobMetrics m;
  m.RampUp = 0.1;
  m.TailDrop = 0.1;  // collapsed at the end: a failure, not a compile step
  std::string flags;
  const std::string report = report_for(m, flags);
  EXPECT_EQ(flags, "cpu_tail_drop");
  EXPECT_EQ(row_result(report, "tail drop"), "FAIL");
  EXPECT_EQ(row_result(report, "ramp-up"), "n/a");
}

TEST(GroupReport, AggregatesByAccount) {
  db::Database database;
  auto& jobs = pipeline::create_jobs_table(database);
  auto add = [&](long id, const char* account, int nodes, double hours) {
    workload::AccountingRecord a;
    a.jobid = id;
    a.user = "u";
    a.account = account;
    a.exe = "x";
    a.queue = "normal";
    a.status = "COMPLETED";
    a.nodes = nodes;
    a.start_time = 0;
    a.end_time = util::from_seconds(hours * 3600);
    pipeline::ingest_job(jobs, a, pipeline::JobMetrics{}, {});
  };
  add(1, "TG-001", 4, 10.0);  // 40 node-hours
  add(2, "TG-001", 2, 5.0);   // 10
  add(3, "TG-002", 1, 2.0);   // 2
  const auto report = group_report(jobs, jobs.select({}));
  EXPECT_LT(report.find("TG-001"), report.find("TG-002"));
  EXPECT_NE(report.find("50"), std::string::npos);
}

TEST(GroupReport, PopulationCarriesAccounts) {
  workload::PopulationConfig config;
  config.num_jobs = 50;
  config.storm_jobs = 5;
  const auto jobs = workload::generate_population(config);
  for (const auto& j : jobs) {
    EXPECT_FALSE(j.account.empty());
    EXPECT_TRUE(j.account.rfind("TG-", 0) == 0);
  }
}

}  // namespace
}  // namespace tacc::portal

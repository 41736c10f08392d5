// Directional temporal diagnosis (paper section V-A): "Sudden performance
// increases suggest a job that consists of a compilation step before it
// runs, while sudden drops indicate application failure." End-to-end: the
// compile-first and fail-mid-run app profiles must produce the matching
// RampUp/TailDrop metrics and flags through the full stack, including a
// monitored daemon-mode run.
#include <gtest/gtest.h>

#include <cmath>

#include "core/monitor.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/jobmap.hpp"
#include "pipeline/minisim.hpp"
#include "workload/apps.hpp"

namespace tacc::pipeline {
namespace {

workload::JobSpec base_job(const char* profile) {
  workload::JobSpec job;
  job.jobid = 600;
  job.user = "u";
  job.profile = profile;
  job.exe = workload::find_profile(profile).exe;
  job.nodes = 2;
  job.wayness = 8;
  job.start_time = util::make_time(2015, 11, 20);
  job.end_time = job.start_time + 4 * util::kHour;
  return job;
}

JobMetrics run(const workload::JobSpec& job) {
  MiniSimOptions opts;
  opts.samples = 11;
  return compute_metrics(simulate_job(job, opts));
}

bool has_flag(const std::vector<Flag>& flags, const std::string& name) {
  for (const auto& f : flags) {
    if (f.name == name) return true;
  }
  return false;
}

TEST(TemporalFlags, CompileJobShowsRampUpNotTailDrop) {
  const auto job = base_job("compile_run");
  const auto m = run(job);
  ASSERT_FALSE(std::isnan(m.RampUp));
  // The compile phase keeps the CPU busy but produces no FLOPs, so the
  // FLOP-based ramp catches it: the paper's "sudden performance increase".
  EXPECT_LT(m.RampUp, 0.3);
  EXPECT_GT(m.TailDrop, 0.8);
  const auto flags = evaluate_flags(workload::to_accounting(job, {}), m);
  EXPECT_TRUE(has_flag(flags, "cpu_ramp_up"));
  EXPECT_FALSE(has_flag(flags, "cpu_tail_drop"));
}

TEST(TemporalFlags, FailedJobShowsTailDrop) {
  auto job = base_job("flaky_solver");
  job.status = "FAILED";
  job.fail_at_frac = 0.5;
  const auto m = run(job);
  ASSERT_FALSE(std::isnan(m.TailDrop));
  EXPECT_LT(m.TailDrop, 0.1);   // dead at the end
  EXPECT_GT(m.RampUp, 0.8);     // started healthy
  EXPECT_LT(m.catastrophe, 0.25);
  const auto flags =
      evaluate_flags(workload::to_accounting(job, {}), m);
  EXPECT_TRUE(has_flag(flags, "cpu_tail_drop"));
  EXPECT_FALSE(has_flag(flags, "cpu_ramp_up"));
  EXPECT_TRUE(has_flag(flags, "cpu_time_variation"));
}

TEST(TemporalFlags, HealthyJobShowsNeither) {
  const auto m = run(base_job("md_engine"));
  EXPECT_GT(m.RampUp, 0.8);
  EXPECT_GT(m.TailDrop, 0.8);
  const auto flags = evaluate_flags(
      workload::to_accounting(base_job("md_engine"), {}), m);
  EXPECT_FALSE(has_flag(flags, "cpu_ramp_up"));
  EXPECT_FALSE(has_flag(flags, "cpu_tail_drop"));
}

TEST(TemporalFlags, MonitoredJobsEndingOnATickKeepTheirTail) {
  // Jobs that end on a sampling tick leave their last interval record and
  // their epilog "end" record at one timestamp. That zero-length interval
  // is no FLOP window: counted as one, it read as a dead tail (TailDrop 0)
  // and flagged cpu_tail_drop on every such job.
  simhw::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);
  core::MonitorConfig mc;
  mc.interval = util::kMinute;
  mc.start = util::make_time(2016, 1, 12);
  core::ClusterMonitor monitor(cluster, mc);
  std::vector<workload::JobSpec> jobs = {base_job("wrf"),
                                         base_job("compile_run")};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].jobid = 700 + static_cast<long>(i);
    jobs[i].nodes = 1;
    jobs[i].submit_time = jobs[i].start_time = mc.start;
    jobs[i].end_time = mc.start + util::kHour;
    monitor.job_started(jobs[i], {i});
  }
  monitor.advance_to(mc.start + util::kHour);
  for (const auto& job : jobs) monitor.job_ended(job.jobid);
  monitor.drain();

  std::vector<std::vector<Flag>> flags;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto acct =
        workload::to_accounting(jobs[i], {cluster.node(i).hostname()});
    flags.push_back(evaluate_flags(
        acct, compute_metrics(extract_job(monitor.archive(), acct))));
  }
  for (const auto& f : flags[0]) ADD_FAILURE() << "wrf flagged " << f.name;
  EXPECT_TRUE(has_flag(flags[1], "cpu_ramp_up"));
  EXPECT_FALSE(has_flag(flags[1], "cpu_tail_drop"));
}

TEST(TemporalFlags, CraftedRampUpFiresDirectionally) {
  // Metrics crafted directly: slow first window, healthy tail.
  JobMetrics m;
  m.RampUp = 0.1;
  m.TailDrop = 0.95;
  m.catastrophe = 0.1;
  workload::AccountingRecord acct;
  acct.queue = "normal";
  const auto flags = evaluate_flags(acct, m);
  EXPECT_TRUE(has_flag(flags, "cpu_ramp_up"));
  EXPECT_FALSE(has_flag(flags, "cpu_tail_drop"));
  // And the mirror image.
  m.RampUp = 0.95;
  m.TailDrop = 0.1;
  const auto flags2 = evaluate_flags(acct, m);
  EXPECT_FALSE(has_flag(flags2, "cpu_ramp_up"));
  EXPECT_TRUE(has_flag(flags2, "cpu_tail_drop"));
}

TEST(TemporalFlags, BothLowMeansDropDominates) {
  // A job that only worked in the middle: the ramp flag stays quiet (we
  // can't distinguish compile from failure when the tail also died), the
  // drop flag fires.
  JobMetrics m;
  m.RampUp = 0.1;
  m.TailDrop = 0.1;
  workload::AccountingRecord acct;
  const auto flags = evaluate_flags(acct, m);
  EXPECT_FALSE(has_flag(flags, "cpu_ramp_up"));
  EXPECT_TRUE(has_flag(flags, "cpu_tail_drop"));
}

TEST(TemporalFlags, MetricsInDatabaseColumns) {
  db::Database database;
  auto& jobs = create_jobs_table(database);
  auto job = base_job("flaky_solver");
  job.fail_at_frac = 0.4;
  const auto m = run(job);
  ingest_job(jobs, workload::to_accounting(job, {}), m,
             evaluate_flags(workload::to_accounting(job, {}), m));
  EXPECT_FALSE(jobs.at(0, "RampUp").is_null());
  EXPECT_FALSE(jobs.at(0, "TailDrop").is_null());
  // The portal can search for failures directly.
  EXPECT_EQ(jobs.select({{"TailDrop", db::Op::Lt, db::Value(0.3)}}).size(),
            1u);
}

}  // namespace
}  // namespace tacc::pipeline

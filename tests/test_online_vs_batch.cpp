// Online vs batch flags over a seeded daemon-mode day (sections VI-B and
// V-A): the online analyzer tests each host's newest interval with Table
// I's interval deltas and pipeline::FlagThresholds, so on single-node jobs
// its alerts and the jobs-table flags agree. Multi-node jobs keep one
// documented gap: MetaDataRate is node-summed, the online rule per node.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/monitor.hpp"
#include "pipeline/flags.hpp"
#include "pipeline/jobmap.hpp"
#include "util/rng.hpp"
#include "workload/apps.hpp"

namespace tacc::core {
namespace {

constexpr std::size_t kNodes = 6;
constexpr util::SimTime kJobLength = util::kHour;

bool has_flag(const std::vector<pipeline::Flag>& flags, const char* name) {
  return std::any_of(flags.begin(), flags.end(),
                     [&](const pipeline::Flag& f) { return f.name == name; });
}

workload::JobSpec make_job(long id, const workload::AppProfile& profile,
                           int nodes, double io_mult) {
  workload::JobSpec job;
  job.jobid = id;
  job.user = "user" + std::to_string(id % 7);
  job.jobname = profile.name;
  job.profile = profile.name;
  job.exe = profile.exe;
  job.queue = profile.queue;
  job.nodes = nodes;
  job.wayness = 8;
  job.io_mult = io_mult;
  return job;
}

TEST(OnlineVsBatch, SeededDayFlagsAgree) {
  // Every catalog profile once, with seeded multipliers, and the storm
  // variant at four fixed I/O multipliers, all single-node; plus one
  // two-node storm whose per-node peaks (8.3k and 7.0k reqs/s) stay below
  // metadata_rate while the node-summed peak (12.4k) exceeds it.
  util::Rng rng("test.online_vs_batch", 1);
  std::vector<workload::JobSpec> singles;
  long id = 1000;
  for (const auto& entry : workload::app_catalog()) {
    const auto& p = entry.profile;
    auto job = make_job(id++, p, 1, rng.lognormal_median(1.0, p.io_sigma));
    job.compute_mult = rng.lognormal_median(1.0, p.compute_sigma);
    job.mem_mult = rng.lognormal_median(1.0, p.mem_sigma);
    job.cpu_jitter = rng.normal(0.0, 0.09);
    singles.push_back(std::move(job));
  }
  const auto& storm = workload::wrf_mdstorm_profile();
  for (const double io : {0.2, 0.35, 0.5, 1.0}) {
    singles.push_back(make_job(id++, storm, 1, io));
  }
  for (std::size_t i = singles.size() - 1; i > 0; --i) {
    std::swap(singles[i], singles[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(i)))]);
  }

  // One-hour waves, back to back on each node: the two-node job takes
  // nodes 0 and 1 in the first wave, the single-node jobs fill the rest.
  const util::SimTime start = util::make_time(2016, 1, 12);
  std::map<util::SimTime, std::vector<std::pair<workload::JobSpec,
                                                std::vector<std::size_t>>>>
      starts;
  auto pair_job = make_job(id++, storm, 2, 0.15);
  const long pair_id = pair_job.jobid;
  starts[start].push_back({std::move(pair_job), {0, 1}});
  std::size_t slot = 2;
  for (auto& job : singles) {
    const util::SimTime t =
        start + static_cast<util::SimTime>(slot / kNodes) * kJobLength;
    starts[t].push_back({std::move(job), {slot % kNodes}});
    ++slot;
  }
  const util::SimTime end =
      start + static_cast<util::SimTime>((slot + kNodes - 1) / kNodes) *
                  kJobLength;

  simhw::ClusterConfig cc;
  cc.num_nodes = kNodes;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);
  MonitorConfig mc;
  mc.interval = util::kMinute;
  mc.start = start;
  ClusterMonitor monitor(cluster, mc);
  std::vector<workload::AccountingRecord> accounting;
  for (util::SimTime now = start; now <= end; now += util::kMinute) {
    monitor.advance_to(now);
    if ((now - start) % kJobLength != 0) continue;
    if (const auto ended = starts.find(now - kJobLength);
        ended != starts.end()) {
      for (const auto& [job, nodes] : ended->second) {
        monitor.job_ended(job.jobid);
        std::vector<std::string> hosts;
        for (const std::size_t n : nodes) {
          hosts.push_back(cluster.node(n).hostname());
        }
        accounting.push_back(workload::to_accounting(job, hosts));
      }
    }
    if (const auto started = starts.find(now); started != starts.end()) {
      for (auto& [job, nodes] : started->second) {
        job.submit_time = now;
        job.start_time = now;
        job.end_time = now + kJobLength;
        monitor.job_started(job, nodes);
      }
    }
  }
  monitor.drain();
  ASSERT_EQ(accounting.size(), singles.size() + 1);

  // The largest online value per (rule, job).
  std::map<std::pair<std::string, long>, double> online;
  for (const auto& alert : monitor.online()->alerts()) {
    for (const long job : alert.jobids) {
      double& v = online[{alert.rule, job}];
      v = std::max(v, alert.value);
    }
  }
  const auto fired = [&](const char* rule, long job) {
    return online.count({rule, job}) > 0;
  };

  std::size_t flagged_singles = 0;
  for (const auto& acct : accounting) {
    const auto metrics =
        pipeline::compute_metrics(pipeline::extract_job(monitor.archive(),
                                                        acct));
    const auto flags = pipeline::evaluate_flags(acct, metrics);
    SCOPED_TRACE("job " + std::to_string(acct.jobid) + " " + acct.jobname +
                 " MetaDataRate " + std::to_string(metrics.MetaDataRate));
    const bool batch_storm = has_flag(flags, "high_metadata_rate");
    if (acct.jobid == pair_id) {
      EXPECT_TRUE(batch_storm);
      EXPECT_FALSE(fired("metadata_storm", acct.jobid));
      continue;
    }
    EXPECT_EQ(fired("metadata_storm", acct.jobid), batch_storm);
    flagged_singles += batch_storm ? 1 : 0;
    if (batch_storm && fired("metadata_storm", acct.jobid)) {
      // The peak interval is one the online analyzer tested on its own.
      EXPECT_EQ(online.at({"metadata_storm", acct.jobid}),
                metrics.MetaDataRate);
    }
    if (has_flag(flags, "high_gige")) {
      EXPECT_TRUE(fired("gige_traffic", acct.jobid));
    }
  }
  // The day exercises both verdicts: of the single-node storms, the one at
  // 0.2 stays below the threshold and the three heavier ones cross it.
  EXPECT_EQ(flagged_singles, 3u);
}

}  // namespace
}  // namespace tacc::core

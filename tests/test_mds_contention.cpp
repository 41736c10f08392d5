// Shared-MDS queueing in the engine (the section VI-A interference
// mechanism): one job's metadata load must raise other jobs' observed
// per-request wait, emergently, through the collected counters.
#include <gtest/gtest.h>

#include "collect/registry.hpp"
#include "pipeline/metrics.hpp"
#include "simhw/cluster.hpp"
#include "workload/engine.hpp"
#include "workload/generator.hpp"

namespace tacc::workload {
namespace {

constexpr util::SimTime kStart = 1451606400LL * util::kSecond;

JobSpec make_job(long id, const char* profile, int nodes,
                 util::SimTime start, util::SimTime runtime) {
  JobSpec j;
  j.jobid = id;
  j.user = "u";
  j.profile = profile;
  j.exe = find_profile(profile).exe;
  j.nodes = nodes;
  j.wayness = 8;
  j.start_time = start;
  j.end_time = start + runtime;
  j.submit_time = start;
  return j;
}

/// Victim's observed us-per-request over an interval, with/without a
/// concurrent storm.
double victim_wait(bool with_storm) {
  simhw::ClusterConfig cc;
  cc.num_nodes = with_storm ? 5 : 1;
  cc.topology = simhw::Topology{2, 4, false};
  simhw::Cluster cluster(cc);
  Engine engine(cluster, kStart);
  engine.start_job(make_job(1, "wrf", 1, kStart, 2 * util::kHour), {0});
  if (with_storm) {
    engine.start_job(make_job(2, "wrf_mdstorm", 4, kStart, 2 * util::kHour),
                     {1, 2, 3, 4});
  }
  engine.advance(util::kHour);
  const auto& lu = cluster.node(0).state().lustre;
  return static_cast<double>(lu.mdc_wait_us) /
         static_cast<double>(lu.mdc_reqs);
}

TEST(MdsContention, StormInflatesVictimWait) {
  const double quiet = victim_wait(false);
  const double stormy = victim_wait(true);
  // Base WRF wait is ~150 us; a 4-node storm (~124k reqs/s) at the 100k
  // capacity should roughly double it.
  EXPECT_NEAR(quiet, 150.0, 15.0);
  EXPECT_GT(stormy, 1.7 * quiet);
  EXPECT_LT(stormy, 6.0 * quiet);
}

TEST(MdsContention, LoadTracksAggregateRate) {
  simhw::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.topology = simhw::Topology{2, 4, false};
  simhw::Cluster cluster(cc);
  Engine engine(cluster, kStart);
  EXPECT_DOUBLE_EQ(engine.mds_load_ps(), 0.0);
  engine.start_job(make_job(7, "wrf_mdstorm", 2, kStart, util::kHour),
                   {0, 1});
  engine.advance(10 * util::kMinute);
  // ~31k reqs/s per node on two nodes.
  EXPECT_NEAR(engine.mds_load_ps(), 62000.0, 20000.0);
  engine.end_job(7);
  engine.advance(2 * Engine::kQuantum);
  EXPECT_DOUBLE_EQ(engine.mds_load_ps(), 0.0);
}

TEST(MdsContention, WaitMetricReflectsContention) {
  // Through the full metric pipeline: the same victim job's MDCWait is
  // larger when it shares the engine with a storm.
  auto run = [](bool with_storm) {
    simhw::ClusterConfig cc;
    cc.num_nodes = with_storm ? 5 : 1;
    cc.topology = simhw::Topology{2, 4, false};
    simhw::Cluster cluster(cc);
    Engine engine(cluster, kStart);
    const auto victim = make_job(1, "wrf", 1, kStart, util::kHour);
    engine.start_job(victim, {0});
    if (with_storm) {
      engine.start_job(make_job(2, "wrf_mdstorm", 4, kStart, util::kHour),
                       {1, 2, 3, 4});
    }
    collect::HostSampler sampler(cluster.node(0));
    auto log = sampler.make_log();
    log.records.push_back(sampler.sample(kStart, {1}, "begin"));
    for (int s = 1; s <= 6; ++s) {
      engine.advance(10 * util::kMinute);
      log.records.push_back(
          sampler.sample(kStart + s * 10 * util::kMinute, {1}, ""));
    }
    const pipeline::JobData data{
        to_accounting(victim, {cluster.node(0).hostname()}), {log}};
    return compute_metrics(data).MDCWait;
  };
  const double quiet = run(false);
  const double stormy = run(true);
  ASSERT_FALSE(std::isnan(quiet));
  ASSERT_FALSE(std::isnan(stormy));
  EXPECT_GT(stormy, 1.5 * quiet);
}

}  // namespace
}  // namespace tacc::workload

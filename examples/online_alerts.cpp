// Online (soft real-time) monitoring and automated response, paper
// section VI-B.
//
// Runs the daemon-mode monitor under a live FCFS scheduler while a
// metadata-storm job and a misconfigured Ethernet-MPI job run alongside
// healthy work. The online analyzer, fed by the broker consumer as records
// arrive, raises administrator alerts; the auto-responder applies a
// three-strike policy and suspends the storm before it can melt the
// filesystem — freeing its nodes for the queued healthy job.
//
//   ./examples/online_alerts
#include <cstdio>

#include "core/autoresponder.hpp"
#include "workload/generator.hpp"

using namespace tacc;

int main() {
  simhw::ClusterConfig cc;
  cc.num_nodes = 12;
  cc.topology = simhw::Topology{2, 8, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);

  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = util::make_time(2016, 1, 11, 9, 0);
  core::ClusterMonitor monitor(cluster, mc);
  core::LiveScheduler scheduler(monitor, cluster.size());
  core::AutoResponder responder(
      *monitor.online(), scheduler, core::ResponderConfig{/*strikes=*/3},
      [](const core::ResponderAction& action) {
        std::printf(">>> ADMIN NOTICE %s: job %ld suspended (%s, %d "
                    "strikes)\n",
                    util::format_time(action.time).c_str(), action.jobid,
                    action.rule.c_str(), action.strikes);
      });

  auto submit = [&](long id, const char* user, const char* profile,
                    int nodes, util::SimTime submit_at,
                    util::SimTime duration) {
    workload::JobSpec job;
    job.jobid = id;
    job.user = user;
    job.profile = profile;
    job.exe = workload::find_profile(profile).exe;
    job.nodes = nodes;
    job.wayness = 16;
    job.submit_time = submit_at;
    job.start_time = submit_at;
    job.end_time = submit_at + duration;
    scheduler.submit(job);
  };

  std::printf("submitting: healthy MD (4 nodes), storm WRF (8 nodes), then\n"
              "a queued CFD job that needs the storm's nodes\n\n");
  submit(7001, "good_user", "md_engine", 4, mc.start, 5 * util::kHour);
  submit(7002, "wrfuser42", "wrf_mdstorm", 8,
         mc.start + 10 * util::kMinute, 5 * util::kHour);
  submit(7003, "cfd_user", "cfd_scalar", 8, mc.start + util::kHour,
         2 * util::kHour);

  // Drive the world in sampling-interval steps, polling the responder the
  // way a supervising service would.
  for (int step = 1; step <= 6 * 9; ++step) {
    scheduler.run_until(mc.start + step * 10 * util::kMinute);
    monitor.drain();
    responder.poll();
  }
  scheduler.drain_jobs();
  monitor.drain();

  std::printf("\n-- first alerts from the online stream --\n");
  const auto alerts = monitor.online()->alerts();
  for (std::size_t i = 0; i < alerts.size() && i < 6; ++i) {
    std::printf("%s  %-9s  %-15s  value=%.0f\n",
                util::format_time(alerts[i].time).c_str(),
                alerts[i].hostname.c_str(), alerts[i].rule.c_str(),
                alerts[i].value);
  }
  std::printf("   ... %zu alerts total\n", alerts.size());

  std::printf("\n-- job outcomes --\n");
  for (const auto& job : scheduler.completed()) {
    std::printf("job %ld (%-10s %-12s) %-9s ran %s, waited %s\n", job.jobid,
                job.user.c_str(), job.profile.c_str(), job.status.c_str(),
                util::format_duration(job.runtime()).c_str(),
                util::format_duration(job.queue_wait()).c_str());
  }
  std::printf(
      "\nThe storm was cut short automatically; the queued CFD job got its\n"
      "nodes hours earlier than it would have, and the MDS never saw the\n"
      "sustained overload (records analyzed online: %zu).\n",
      monitor.online()->records_analyzed());
  return 0;
}

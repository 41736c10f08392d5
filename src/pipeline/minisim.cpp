#include "pipeline/minisim.hpp"

#include <mutex>

#include "collect/registry.hpp"
#include "pipeline/ingest.hpp"
#include "util/thread_pool.hpp"
#include "workload/engine.hpp"

namespace tacc::pipeline {

JobData simulate_job(const workload::JobSpec& spec,
                     const MiniSimOptions& options) {
  const auto& profile = workload::find_profile(spec.profile);

  simhw::ClusterConfig cc;
  cc.num_nodes = spec.nodes;
  cc.uarch = options.uarch;
  cc.topology.sockets = options.sockets;
  cc.topology.cores_per_socket = options.cores_per_socket;
  cc.topology.hyperthreading = options.hyperthreading;
  cc.mem_total_kb = options.mem_total_kb;
  cc.phi_fraction = profile.mic_util > 0.0 ? 1.0 : 0.0;
  simhw::Cluster cluster(cc);

  workload::Engine engine(cluster, spec.start_time);
  std::vector<std::size_t> node_indices(static_cast<std::size_t>(spec.nodes));
  for (std::size_t i = 0; i < node_indices.size(); ++i) node_indices[i] = i;
  engine.start_job(spec, node_indices);

  collect::BuildOptions build;
  build.with_phi = profile.mic_util > 0.0;
  std::vector<collect::HostSampler> samplers;
  std::vector<collect::HostLog> logs;
  samplers.reserve(cluster.size());
  logs.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    samplers.emplace_back(cluster.node(i), build);
    logs.push_back(samplers.back().make_log());
  }

  auto sample_all = [&](util::SimTime t, const std::string& mark) {
    for (std::size_t i = 0; i < samplers.size(); ++i) {
      logs[i].records.push_back(samplers[i].sample(t, {spec.jobid}, mark));
    }
  };

  // Prolog collection, interior samples, epilog collection.
  sample_all(spec.start_time, "begin");
  const int steps = std::max(1, options.samples + 1);
  const util::SimTime interval = spec.runtime() / steps;
  util::SimTime t = spec.start_time;
  for (int s = 0; s < steps - 1; ++s) {
    engine.advance(interval);
    t += interval;
    sample_all(t, {});
  }
  engine.advance(spec.end_time - t);
  engine.end_job(spec.jobid);
  sample_all(spec.end_time, "end");

  std::vector<std::string> hostnames;
  hostnames.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    hostnames.push_back(cluster.node(i).hostname());
  }
  // The logs hold only this job's records, in time order, one per
  // accounting host in accounting order: they are the job's data as is.
  return {workload::to_accounting(spec, std::move(hostnames)),
          std::move(logs)};
}

std::size_t ingest_population(db::Database& database,
                              const std::vector<workload::JobSpec>& jobs,
                              const MiniSimOptions& options,
                              std::size_t threads) {
  auto& table = database.has_table(kJobsTable)
                    ? database.table(kJobsTable)
                    : create_jobs_table(database);
  std::mutex mu;
  std::size_t ingested = 0;
  util::ThreadPool pool(threads);
  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    const JobData data = simulate_job(jobs[i], options);
    if (data.hosts.empty()) return;
    const JobMetrics metrics = compute_metrics(data);
    const auto flags = evaluate_flags(data.acct, metrics);
    std::lock_guard lock(mu);
    ingest_job(table, data.acct, metrics, flags);
    ++ingested;
  });
  return ingested;
}

}  // namespace tacc::pipeline

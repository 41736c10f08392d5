// ClusterMonitor: the end-to-end facade wiring a simulated cluster, the
// workload engine, per-node collection, one of the two transport modes, and
// (in daemon mode) the real-time consumer plus online analyzer. This is the
// API the examples and the figure benches drive.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/online.hpp"
#include "simhw/cluster.hpp"
#include "transport/archive.hpp"
#include "transport/broker.hpp"
#include "transport/consumer.hpp"
#include "transport/cron.hpp"
#include "transport/daemon.hpp"
#include "transport/topology.hpp"
#include "workload/engine.hpp"

namespace tacc::core {

enum class TransportMode { Cron, Daemon };

struct MonitorConfig {
  TransportMode mode = TransportMode::Daemon;
  util::SimTime interval = 10 * util::kMinute;
  util::SimTime start = util::make_time(2016, 1, 1);
  collect::BuildOptions build_options{};
  /// Enable the online analyzer on the daemon-mode stream.
  bool online_analysis = true;
  /// Fault schedule threaded through broker, daemons, consumer, and cron
  /// (null = no injection).
  std::shared_ptr<const util::FaultPlan> fault_plan;
  /// Daemon-mode queue depth cap; overflow dead-letters (0 = unlimited).
  std::size_t queue_limit = 0;
  transport::RetryPolicy retry{};
  transport::ConsumerOptions consumer_options{};
  /// Daemon-mode transport topology: defaults to the flat single broker;
  /// leaf_brokers > 1 builds the sharded broker + aggregator tree.
  transport::TreeOptions topology{};
};

class ClusterMonitor {
 public:
  ClusterMonitor(simhw::Cluster& cluster, MonitorConfig config);
  ~ClusterMonitor();

  ClusterMonitor(const ClusterMonitor&) = delete;
  ClusterMonitor& operator=(const ClusterMonitor&) = delete;

  workload::Engine& engine() noexcept { return engine_; }
  transport::RawArchive& archive() noexcept { return archive_; }
  /// The root broker (the one the consumer drains). With the default flat
  /// topology this is the only broker, as before.
  transport::Broker& broker() noexcept { return tree_->root(); }
  transport::AggregationTree& topology() noexcept { return *tree_; }
  OnlineAnalyzer* online() noexcept { return online_.get(); }
  util::SimTime now() const noexcept { return now_; }

  /// Starts a job on specific nodes: engine demand begins and the
  /// scheduler prolog triggers a "begin" collection on each node.
  void job_started(const workload::JobSpec& spec,
                   std::vector<std::size_t> node_indices);

  /// Ends a job: epilog "end" collection on each node, then demand stops.
  void job_ended(long jobid);

  /// Advances simulation to `t`, stepping engine + transport at the
  /// sampling interval.
  void advance_to(util::SimTime t);

  /// Fails a node (cron mode loses its unstaged local data).
  void fail_node(std::size_t index);

  /// Daemon mode: replays every daemon's local spool, then blocks until
  /// the consumer drained the broker queue.
  void drain();

  /// Daemon mode: simulates a consumer crash (its in-flight delivery is
  /// left unacked; the broker keeps queuing). No-op in cron mode.
  void crash_consumer();

  /// Daemon mode: starts a fresh consumer against the same archive. It
  /// recovers the dead predecessor's unacked deliveries; dedup in the
  /// archive keeps delivery exactly-once. No-op in cron mode.
  void restart_consumer();

  /// Aggregated daemon stats (daemon mode) / cron stats (cron mode).
  transport::CronStats cron_stats() const;
  transport::DaemonStats daemon_stats() const;

  /// Unique records collected so far (sequence numbers assigned across all
  /// daemons, or cron collections) — the "published_unique" side of
  /// delivered-vs-lost accounting.
  std::uint64_t published_unique() const;

  /// Records still parked in daemon spools (0 after a clean drain).
  std::size_t spool_depth() const;

  /// Cron mode: records still node-local (unrotated or awaiting a
  /// successful rsync). 0 in daemon mode.
  std::size_t cron_backlog() const;

  /// Merged fault counters from every broker tier + aggregators + daemons
  /// + consumer (daemon mode) or cron (cron mode).
  util::ResilienceStats resilience_stats() const;

  /// Per-tier rollup: the tree's broker/aggregator rows with the endpoints
  /// folded in — daemon spools + resilience into the leaf tier, consumer
  /// dedup/requeue counters into the root tier. Summing every row
  /// field-by-field reproduces resilience_stats() exactly (asserted by
  /// test_resilience_rollup). Empty in cron mode.
  std::vector<transport::TierStats> tier_stats() const;

  /// tier_stats() rendered as one table: queue depth, unacked, dead
  /// letters, pending/spooled records, and pause/resume transitions per
  /// tier, so callers stop polling brokers individually.
  std::string topology_stats() const;

 private:
  std::vector<long> jobs_on(std::size_t node_index) const;
  void start_consumer();

  simhw::Cluster* cluster_;
  MonitorConfig config_;
  workload::Engine engine_;
  transport::RawArchive archive_;
  /// Broker topology (flat or tree); outlives the consumer, which drains
  /// its root.
  std::unique_ptr<transport::AggregationTree> tree_;
  std::unique_ptr<OnlineAnalyzer> online_;
  std::unique_ptr<transport::Consumer> consumer_;
  /// Counters inherited from crashed consumer incarnations.
  util::ResilienceStats dead_consumer_resilience_;
  std::vector<std::unique_ptr<transport::StatsDaemon>> daemons_;
  std::unique_ptr<transport::CronMode> cron_;
  util::SimTime now_;
};

}  // namespace tacc::core

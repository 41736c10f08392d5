#include "core/monitor.hpp"

#include <utility>

#include "util/table.hpp"

namespace tacc::core {

namespace {
constexpr const char* kQueue = "raw_stats";
}  // namespace

ClusterMonitor::ClusterMonitor(simhw::Cluster& cluster, MonitorConfig config)
    : cluster_(&cluster),
      config_(config),
      engine_(cluster, config.start),
      now_(config.start) {
  // The tree builds every broker (declared/bound/fault-planned); the flat
  // default is a one-broker tree with no aggregators — the exact Fig. 2
  // pipeline. Cron mode keeps a flat tree so broker() stays valid.
  tree_ = std::make_unique<transport::AggregationTree>(
      kQueue,
      config_.mode == TransportMode::Daemon ? config_.topology
                                            : transport::TreeOptions{},
      config_.fault_plan);
  if (config_.mode == TransportMode::Daemon) {
    if (config_.queue_limit > 0) {
      tree_->root().set_queue_limit(kQueue, config_.queue_limit);
    }
    if (config_.online_analysis) {
      online_ = std::make_unique<OnlineAnalyzer>();
    }
    start_consumer();
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      transport::DaemonConfig dc;
      dc.interval = config_.interval;
      dc.build_options = config_.build_options;
      dc.retry = config_.retry;
      dc.faults = config_.fault_plan;
      daemons_.push_back(std::make_unique<transport::StatsDaemon>(
          cluster.node(i), tree_->leaf_for(cluster.node(i).hostname()), dc,
          [this, i] { return jobs_on(i); }));
    }
  } else {
    transport::CronConfig cc;
    cc.interval = config_.interval;
    cc.build_options = config_.build_options;
    cc.faults = config_.fault_plan;
    cron_ = std::make_unique<transport::CronMode>(
        cluster, archive_, cc,
        [this](std::size_t i) { return jobs_on(i); });
  }
}

void ClusterMonitor::start_consumer() {
  transport::Consumer::RecordCallback callback;
  if (online_) {
    callback = [this](const std::string& host,
                      const collect::HostLog& chunk) {
      online_->on_chunk(host, chunk);
    };
  }
  consumer_ = std::make_unique<transport::Consumer>(
      tree_->root(), archive_, kQueue, callback, config_.consumer_options,
      config_.fault_plan);
}

void ClusterMonitor::crash_consumer() {
  if (!consumer_) return;
  // Join first: the thread may still finish (and dedup) one delivery.
  consumer_->crash();
  dead_consumer_resilience_.merge(consumer_->resilience());
  consumer_.reset();
}

void ClusterMonitor::restart_consumer() {
  if (config_.mode != TransportMode::Daemon || consumer_) return;
  start_consumer();
}

ClusterMonitor::~ClusterMonitor() {
  tree_->stop();
  if (consumer_) consumer_->stop();
}

std::vector<long> ClusterMonitor::jobs_on(std::size_t node_index) const {
  return engine_.jobs_on(node_index);
}

void ClusterMonitor::job_started(const workload::JobSpec& spec,
                                 std::vector<std::size_t> node_indices) {
  engine_.start_job(spec, std::move(node_indices));
  for (const std::size_t ni : *engine_.nodes_of(spec.jobid)) {
    if (config_.mode == TransportMode::Daemon) {
      daemons_[ni]->collect_now(now_, "begin");
    } else {
      cron_->collect_now(ni, now_, "begin");
    }
  }
}

void ClusterMonitor::job_ended(long jobid) {
  const auto* nodes = engine_.nodes_of(jobid);
  if (nodes != nullptr) {
    for (const std::size_t ni : *nodes) {
      if (config_.mode == TransportMode::Daemon) {
        daemons_[ni]->collect_now(now_, "end");
      } else {
        cron_->collect_now(ni, now_, "end");
      }
    }
  }
  engine_.end_job(jobid);
}

void ClusterMonitor::advance_to(util::SimTime t) {
  while (now_ < t) {
    const util::SimTime step = std::min(config_.interval, t - now_);
    engine_.advance(step);
    now_ += step;
    if (config_.mode == TransportMode::Daemon) {
      for (auto& daemon : daemons_) daemon->on_time(now_);
    } else {
      cron_->on_time(now_);
    }
  }
}

void ClusterMonitor::fail_node(std::size_t index) {
  cluster_->fail_node(index);
  if (cron_) cron_->node_failed(index);
}

void ClusterMonitor::drain() {
  // With aggregator tiers (and watermark backpressure) between daemons and
  // root, one spool pass is not enough: quiesce the tree so Paused queues
  // resume, flush the daemon spools, and repeat until nothing moved. A
  // dead consumer degrades to the old single flush (the tree cannot
  // quiesce into a root nobody drains).
  for (;;) {
    if (consumer_) {
      tree_->quiesce();   // every in-flight record reaches the root queue
      consumer_->drain(); // ... and the root queue reaches the archive
    }
    std::size_t flushed = 0;
    for (auto& d : daemons_) flushed += d->flush_spool(now_);
    if (flushed == 0 || !consumer_) break;
  }
}

transport::CronStats ClusterMonitor::cron_stats() const {
  return cron_ ? cron_->stats() : transport::CronStats{};
}

transport::DaemonStats ClusterMonitor::daemon_stats() const {
  transport::DaemonStats total;
  for (const auto& d : daemons_) {
    total.collections += d->stats().collections;
    total.publish_failures += d->stats().publish_failures;
    total.total_collect_wall_s += d->stats().total_collect_wall_s;
    total.total_backoff += d->stats().total_backoff;
    total.resilience.merge(d->stats().resilience);
  }
  return total;
}

std::uint64_t ClusterMonitor::published_unique() const {
  if (cron_) return cron_->stats().collected_records;
  std::uint64_t n = 0;
  for (const auto& d : daemons_) n += d->last_seq();
  return n;
}

std::size_t ClusterMonitor::cron_backlog() const {
  return cron_ ? cron_->backlog() : 0;
}

std::size_t ClusterMonitor::spool_depth() const {
  std::size_t n = tree_->spool_records();
  for (const auto& d : daemons_) n += d->spool_depth();
  return n;
}

util::ResilienceStats ClusterMonitor::resilience_stats() const {
  util::ResilienceStats total;
  if (cron_) {
    total.merge(cron_->stats().resilience);
    return total;
  }
  total.merge(tree_->resilience());
  for (const auto& d : daemons_) total.merge(d->stats().resilience);
  total.merge(dead_consumer_resilience_);
  if (consumer_) total.merge(consumer_->resilience());
  return total;
}

std::vector<transport::TierStats> ClusterMonitor::tier_stats() const {
  if (config_.mode != TransportMode::Daemon) return {};
  auto rows = tree_->tier_stats();
  if (rows.empty()) return rows;
  // Fold the endpoints in: the daemons publish into the leaf tier, the
  // consumer drains the root tier. With the flat topology both land on the
  // same single row.
  transport::TierStats& leaf = rows.front();
  for (const auto& d : daemons_) {
    leaf.spool_records += d->spool_depth();
    leaf.resilience.merge(d->stats().resilience);
  }
  transport::TierStats& root = rows.back();
  root.resilience.merge(dead_consumer_resilience_);
  if (consumer_) root.resilience.merge(consumer_->resilience());
  return rows;
}

std::string ClusterMonitor::topology_stats() const {
  util::TextTable table;
  table.header({"tier", "brokers", "aggs", "depth", "unacked", "dead",
                "pending", "spooled", "paused", "resumed", "deduped"});
  for (const auto& row : tier_stats()) {
    table.row({std::to_string(row.tier), std::to_string(row.brokers),
               std::to_string(row.aggregators),
               std::to_string(row.queue_depth), std::to_string(row.unacked),
               std::to_string(row.dead_letters),
               std::to_string(row.pending_records),
               std::to_string(row.spool_records),
               std::to_string(row.resilience.paused_windows),
               std::to_string(row.resilience.resumed_windows),
               std::to_string(row.resilience.deduped)});
  }
  return table.render();
}

}  // namespace tacc::core

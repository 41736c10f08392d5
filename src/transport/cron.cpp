#include "transport/cron.hpp"

#include "simhw/node.hpp"

namespace tacc::transport {

/// Staging window: each node picks a fixed random time in
/// [kStageWindowStart, kStageWindowEnd) of every day.
constexpr util::SimTime kStageWindowStart = 1 * util::kHour;
constexpr util::SimTime kStageWindowEnd = 5 * util::kHour;

CronMode::CronMode(simhw::Cluster& cluster, RawArchive& archive,
                   CronConfig config, JobsProvider jobs_provider)
    : cluster_(&cluster),
      archive_(&archive),
      config_(config),
      jobs_provider_(std::move(jobs_provider)) {
  util::Rng rng("cron.stage", config.seed);
  nodes_.resize(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    nodes_[i].sampler = std::make_unique<collect::HostSampler>(
        cluster.node(i), config.build_options);
    nodes_[i].stage_offset =
        kStageWindowStart +
        static_cast<util::SimTime>(
            rng.uniform() *
            static_cast<double>(kStageWindowEnd - kStageWindowStart));
  }
}

void CronMode::collect_node(std::size_t index, util::SimTime now,
                            const std::string& mark) {
  auto& state = nodes_[index];
  auto& node = cluster_->node(index);
  if (node.failed()) {
    ++stats_.skipped_nodes;
    return;
  }
  try {
    auto record = state.sampler->sample(now, jobs_provider_(index), mark);
    ++stats_.collected_records;
    state.last_collect = now;
    if (config_.faults &&
        config_.faults
            ->decide(util::kFaultCronDisk, node.hostname(),
                     static_cast<std::uint64_t>(now / util::kSecond), now)
            .error) {
      // Node-local disk full: the sample was taken but the append to the
      // local log fails, so the record is gone.
      ++stats_.disk_full_drops;
      ++stats_.lost_records;
      ++stats_.resilience.injected_errors;
      return;
    }
    state.current.push_back(std::move(record));
  } catch (const simhw::NodeFailedError&) {
    ++stats_.skipped_nodes;
  }
}

void CronMode::rotate_node(NodeState& state) {
  for (auto& record : state.current) {
    state.pending.push_back(std::move(record));
  }
  state.current.clear();
}

void CronMode::stage_node(std::size_t index, util::SimTime now,
                          util::SimTime stage_time) {
  auto& state = nodes_[index];
  auto& node = cluster_->node(index);
  if (node.failed()) return;  // rsync source unreachable
  if (state.pending.empty()) return;
  if (config_.faults &&
      config_.faults
          ->decide(util::kFaultCronRsync, node.hostname(),
                   static_cast<std::uint64_t>(stage_time / util::kSecond),
                   now)
          .error) {
    // The staged rsync failed; the rotated files stay node-local and are
    // caught up at the next staging window.
    ++stats_.rsync_failures;
    ++stats_.resilience.injected_errors;
    return;
  }
  if (!state.header_sent) {
    archive_->add_header(node.hostname(), node.arch().codename,
                         state.sampler->schemas());
    state.header_sent = true;
  }
  for (auto& record : state.pending) {
    archive_->append(node.hostname(), std::move(record), now);
    ++stats_.staged_records;
  }
  state.pending.clear();
}

void CronMode::on_time(util::SimTime now) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto& state = nodes_[i];
    // Interval collections.
    if (state.last_collect == 0 || now - state.last_collect >=
                                       config_.interval) {
      collect_node(i, now, {});
    }
    // Daily rotation at midnight.
    const util::SimTime day = now - now % util::kDay;
    if (state.last_rotate < day) {
      rotate_node(state);
      state.last_rotate = day;
    }
    // Staged rsync at the node's daily offset.
    const util::SimTime stage_time = day + state.stage_offset;
    if (now >= stage_time && state.last_stage < stage_time) {
      stage_node(i, now, stage_time);
      state.last_stage = stage_time;
    }
  }
  now_ = now;
}

void CronMode::node_failed(std::size_t node_index) {
  auto& state = nodes_[node_index];
  stats_.lost_records += state.current.size() + state.pending.size();
  state.current.clear();
  state.pending.clear();
}

std::size_t CronMode::backlog() const noexcept {
  std::size_t n = 0;
  for (const auto& state : nodes_) {
    n += state.current.size() + state.pending.size();
  }
  return n;
}

bool CronMode::collect_now(std::size_t node_index, util::SimTime now,
                           const std::string& mark) {
  const auto before = stats_.collected_records;
  collect_node(node_index, now, mark);
  return stats_.collected_records > before;
}

}  // namespace tacc::transport

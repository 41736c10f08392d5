// Cron-mode transport (paper Fig. 1): each node appends collections to a
// node-local log file, rotates it daily, and a staged rsync copies the
// rotated files to the central archive once a day at a random per-node
// time in the early morning (so the shared filesystem is not hammered by
// thousands of simultaneous copies). This is the original operation mode;
// it trades hours of availability latency — and loses the unstaged data of
// a failed node — for having no network service dependency.
// Resilience: an optional util::FaultPlan injects rsync failures at the
// "cron.rsync" site (the staged copy fails; the node's rotated files stay
// local and are caught up at the next staging window) and disk-full errors
// at "cron.disk" (the node-local append fails and that sample is lost).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "collect/registry.hpp"
#include "simhw/cluster.hpp"
#include "transport/archive.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace tacc::transport {

struct CronConfig {
  util::SimTime interval = 10 * util::kMinute;
  collect::BuildOptions build_options{};
  std::uint64_t seed = 42;
  /// Fault plan consulted at "cron.rsync" / "cron.disk" (may be null).
  std::shared_ptr<const util::FaultPlan> faults;
};

struct CronStats {
  std::uint64_t collected_records = 0;
  std::uint64_t staged_records = 0;
  std::uint64_t lost_records = 0;  // node-local data destroyed by failures
  std::uint64_t skipped_nodes = 0; // collections skipped on failed nodes
  std::uint64_t rsync_failures = 0;  // staging attempts that failed
  std::uint64_t disk_full_drops = 0; // samples lost to a full local disk
  util::ResilienceStats resilience;
};

class CronMode {
 public:
  using JobsProvider =
      std::function<std::vector<long>(std::size_t node_index)>;

  CronMode(simhw::Cluster& cluster, RawArchive& archive, CronConfig config,
           JobsProvider jobs_provider);

  /// Advances to `now`: runs due collections, performs the daily rotation
  /// at midnight, and stages rotated logs at each node's staging time.
  /// Call with monotonically non-decreasing times.
  void on_time(util::SimTime now);

  /// Reports a node failure: the node-local log (today's unrotated file
  /// plus any rotated-but-unstaged files) is lost.
  void node_failed(std::size_t node_index);

  /// Immediate collection with a mark on one node (prolog/epilog).
  bool collect_now(std::size_t node_index, util::SimTime now,
                   const std::string& mark);

  const CronStats& stats() const noexcept { return stats_; }

  /// Node-local records not yet staged (today's logs + rotated pending).
  std::size_t backlog() const noexcept;

 private:
  struct NodeState {
    std::unique_ptr<collect::HostSampler> sampler;
    std::vector<collect::Record> current;    // today's local log
    std::vector<collect::Record> pending;    // rotated, awaiting rsync
    util::SimTime stage_offset = 0;          // time-of-day of the rsync
    util::SimTime last_collect = 0;
    util::SimTime last_rotate = 0;
    util::SimTime last_stage = 0;
    bool header_sent = false;
  };

  void collect_node(std::size_t index, util::SimTime now,
                    const std::string& mark);
  void rotate_node(NodeState& state);
  void stage_node(std::size_t index, util::SimTime now,
                  util::SimTime stage_time);

  simhw::Cluster* cluster_;
  RawArchive* archive_;
  CronConfig config_;
  JobsProvider jobs_provider_;
  std::vector<NodeState> nodes_;
  CronStats stats_;
  util::SimTime now_ = 0;
};

}  // namespace tacc::transport

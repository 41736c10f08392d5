// tacc_statsd: the daemon-mode collector (paper Fig. 2). One instance per
// node; sampling is driven by simulated time (the real daemon's sleep()
// loop), and every collection is serialized as a self-describing chunk
// (header + one record), sent as a frame of one (transport/frame.hpp:
// producer = hostname, the record's seq, header_len = the header's size)
// and published to the broker with routing key "stats.<hostname>".
//
// The daemon also accepts out-of-band collection triggers: the scheduler
// prolog/epilog ("begin"/"end" marks) and the shared-node process
// start/stop signals of section VI-C.
//
// Resilience: every record carries a per-host sequence number and goes
// through the Outbox below, the delivery path the aggregator tier shares:
// a failed publish (broker unreachable at the "daemon.publish" fault site,
// or an in-flight drop) is retried with exponential backoff + deterministic
// jitter, and a record that exhausts its attempts falls back to a local
// cron-style spool that is replayed, in order, once the broker is
// reachable again.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "collect/registry.hpp"
#include "transport/broker.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::transport {

/// Routing-key prefix of every stats publish: host h's frames route as
/// "stats.h", and AggregationTree binds "stats.*" on every broker.
inline constexpr std::string_view kRoutingPrefix = "stats.";

/// Publish retry/spool tuning. Backoff is virtual (accounted, not slept):
/// the simulated daemon retries within one collection tick.
struct RetryPolicy {
  int max_attempts = 4;          // publish attempts per record
  std::size_t spool_limit = 100000;  // max records spooled locally
};

/// An Outbox's counters: retries, injected_errors, spooled, replayed and
/// spool_dropped, plus the virtual time spent backing off.
struct OutboxStats {
  util::ResilienceStats resilience;
  util::SimTime total_backoff = 0;
};

/// One producer's delivery path to its broker, shared by the daemon and
/// the aggregator tier: every message goes through one retry/backoff/jitter
/// loop, and a message that exhausts its attempts waits in a bounded local
/// spool that replays in order, ahead of fresh sends.
///
/// Faults are decided at `site`, keyed by the producer name, which is also
/// the upward PublishInfo::producer. A first send salts attempt a with
/// (seq, a). Replay round r salts it with (seq, r * max_attempts + a), so a
/// message whose attempts all drew faults rolls fresh dice on the next
/// round instead of failing the same way forever.
///
/// Owned by one thread; stats() and spooled_records() may be read from any.
class Outbox {
 public:
  struct Entry {
    std::string routing_key;
    std::string body;
    std::uint64_t seq = 0;      // PublishInfo::seq and fault salt
    std::size_t records = 1;    // raw records carried (spool accounting)
    util::SimTime now = 0;      // simulated publish time
  };

  Outbox(Broker& target, std::string producer, std::string_view site,
         RetryPolicy policy, std::shared_ptr<const util::FaultPlan> faults);

  /// Publishes `entry` at its own time. If older entries are spooled, or
  /// every attempt fails, spools it instead. True if published.
  bool send(Entry entry);

  /// Spools `entry` without an attempt (the target queue is paused).
  void hold(Entry entry);

  /// One replay round: publishes spooled entries in order until one fails
  /// all its attempts. Skipped while the target queue is paused. Faults
  /// are decided, and entries published, at `now`, or at each entry's own
  /// time when `now` is empty. Returns the records replayed.
  std::size_t replay(std::optional<util::SimTime> now);

  /// Records parked in the spool.
  std::size_t spooled_records() const TACC_EXCLUDES(mu_);

  OutboxStats stats() const TACC_EXCLUDES(mu_);

 private:
  /// The retry/backoff loop; `slot_base` offsets the attempt salt.
  bool try_publish(const Entry& entry, util::SimTime now,
                   std::uint64_t slot_base) TACC_EXCLUDES(mu_);
  /// Appends to the spool; past spool_limit records the oldest entries
  /// age out. `why` names the cause in the episode's opening warning.
  void park(Entry entry, std::string_view why) TACC_EXCLUDES(mu_);

  Broker* target_;
  const std::string producer_;
  const std::string_view site_;
  const RetryPolicy policy_;
  const std::shared_ptr<const util::FaultPlan> faults_;

  // Owned by the sending thread.
  std::deque<Entry> spool_;
  std::uint64_t round_ = 0;
  std::size_t episode_replayed_ = 0;  // records replayed since spool filled

  mutable util::Mutex mu_;
  OutboxStats stats_ TACC_GUARDED_BY(mu_);
  std::size_t spooled_records_ TACC_GUARDED_BY(mu_) = 0;
};

struct DaemonConfig {
  util::SimTime interval = 10 * util::kMinute;
  collect::BuildOptions build_options{};
  RetryPolicy retry{};
  /// Fault plan consulted at the "daemon.publish" site (may be null).
  std::shared_ptr<const util::FaultPlan> faults;
};

struct DaemonStats {
  std::uint64_t collections = 0;
  std::uint64_t publish_failures = 0;  // node down, or all attempts failed
  double total_collect_wall_s = 0.0;   // real time spent collecting
  util::SimTime total_backoff = 0;     // virtual time spent backing off
  util::ResilienceStats resilience;
};

class StatsDaemon {
 public:
  /// `jobs_provider` returns the job ids currently active on the node
  /// (what the real daemon learns from the scheduler prolog/epilog).
  StatsDaemon(simhw::Node& node, Broker& broker, DaemonConfig config,
              std::function<std::vector<long>()> jobs_provider);

  const std::string& hostname() const noexcept;

  /// Advances the daemon's clock; performs and publishes a collection if
  /// the sampling interval elapsed. Returns true if a collection ran.
  bool on_time(util::SimTime now);

  /// Immediate collection with a mark (prolog/epilog/process hooks).
  /// Returns false if the node is down.
  bool collect_now(util::SimTime now, const std::string& mark);

  /// One replay round of the spool at `now` (called on every collection,
  /// and by ClusterMonitor::drain()). Returns records replayed.
  std::size_t flush_spool(util::SimTime now) { return outbox_.replay(now); }

  /// Records currently parked in the local spool.
  std::size_t spool_depth() const { return outbox_.spooled_records(); }

  /// Sequence numbers assigned so far (== collections; the unique-record
  /// count for delivered-vs-lost accounting).
  std::uint64_t last_seq() const noexcept { return next_seq_; }

  DaemonStats stats() const;
  util::SimTime last_collection() const noexcept { return last_; }

 private:
  bool publish_record(util::SimTime now, const std::string& mark);

  simhw::Node* node_;
  Broker* broker_;
  DaemonConfig config_;
  std::string routing_key_;
  std::function<std::vector<long>()> jobs_provider_;
  collect::HostSampler sampler_;
  std::string header_;
  util::SimTime last_ = 0;
  std::uint64_t next_seq_ = 0;
  Outbox outbox_;
  DaemonStats stats_;  // collections, failures, wall time; outbox_ the rest
};

}  // namespace tacc::transport

#include "transport/daemon.hpp"

#include <algorithm>

#include "simhw/node.hpp"
#include "transport/frame.hpp"
#include "util/log.hpp"

namespace tacc::transport {

Outbox::Outbox(Broker& target, std::string producer, std::string_view site,
               RetryPolicy policy,
               std::shared_ptr<const util::FaultPlan> faults)
    : target_(&target),
      producer_(std::move(producer)),
      site_(site),
      policy_(policy),
      faults_(std::move(faults)) {}

/// Retry backoff: the first retry waits kBackoffBase, and each later one
/// doubles the wait up to kBackoffMax. Under a fault plan each wait is
/// randomized by +/- kJitter of itself.
constexpr util::SimTime kBackoffBase = util::kSecond;
constexpr util::SimTime kBackoffMax = 60 * util::kSecond;
constexpr double kJitter = 0.1;

bool Outbox::try_publish(const Entry& entry, util::SimTime now,
                         std::uint64_t slot_base) {
  const int attempts = std::max(1, policy_.max_attempts);
  util::SimTime backoff = kBackoffBase;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const std::uint64_t slot = slot_base + static_cast<std::uint64_t>(attempt);
    const std::uint64_t salt = util::FaultPlan::salt(entry.seq, slot);
    if (attempt > 0) {
      // Exponential backoff with deterministic jitter. Virtual: the
      // simulation does not advance global time, but the cost is accounted
      // so benches can report it.
      util::SimTime wait = backoff;
      if (faults_) {
        const double u = faults_->uniform(site_, producer_, salt);
        wait += static_cast<util::SimTime>(static_cast<double>(wait) *
                                           kJitter * (2.0 * u - 1.0));
      }
      backoff = std::min(backoff * 2, kBackoffMax);
      util::MutexLock lock(mu_);
      ++stats_.resilience.retries;
      stats_.total_backoff += wait;
    }
    if (faults_ && faults_->decide(site_, producer_, salt, now).error) {
      util::MutexLock lock(mu_);
      ++stats_.resilience.injected_errors;
      continue;
    }
    PublishInfo info;
    info.producer = producer_;
    info.seq = entry.seq;
    info.attempt = static_cast<std::uint32_t>(slot);
    info.now = now;
    if (target_->publish(entry.routing_key, entry.body, info) > 0) return true;
  }
  return false;
}

void Outbox::park(Entry entry, std::string_view why) {
  if (spool_.empty()) {
    // One warning per spool episode, not per record: the drain is logged
    // by replay().
    episode_replayed_ = 0;
    TS_LOG(Warn, site_) << producer_ << ": " << why << ", spooling";
  }
  const std::size_t n = entry.records;
  spool_.push_back(std::move(entry));
  util::MutexLock lock(mu_);
  stats_.resilience.spooled += n;
  spooled_records_ += n;
  // The oldest data ages out of a full spool; the newest entry stays even
  // if it alone exceeds the limit.
  while (policy_.spool_limit > 0 && spooled_records_ > policy_.spool_limit &&
         spool_.size() > 1) {
    spooled_records_ -= spool_.front().records;
    stats_.resilience.spool_dropped += spool_.front().records;
    spool_.pop_front();
  }
}

bool Outbox::send(Entry entry) {
  // A non-empty spool means older entries are still waiting: queue behind
  // them so the producer's stream stays in order.
  if (spool_.empty() && try_publish(entry, entry.now, 0)) return true;
  park(std::move(entry), "publish failed");
  return false;
}

void Outbox::hold(Entry entry) { park(std::move(entry), "queue paused"); }

std::size_t Outbox::replay(std::optional<util::SimTime> now) {
  // Backpressure: while the target queue is Paused, hold the backlog
  // locally rather than overrunning a slow tier above.
  if (spool_.empty() || target_->publish_paused(spool_.front().routing_key)) {
    return 0;
  }
  ++round_;
  const auto slot_base =
      round_ * static_cast<std::uint64_t>(std::max(1, policy_.max_attempts));
  std::size_t replayed = 0;
  while (!spool_.empty()) {
    const Entry& entry = spool_.front();
    if (!try_publish(entry, now.value_or(entry.now), slot_base)) break;
    const std::size_t n = entry.records;
    spool_.pop_front();
    replayed += n;
    util::MutexLock lock(mu_);
    stats_.resilience.replayed += n;
    spooled_records_ -= n;
  }
  episode_replayed_ += replayed;
  if (replayed > 0 && spool_.empty()) {
    TS_LOG(Warn, site_) << producer_ << ": spool drained, "
                        << episode_replayed_ << " records replayed";
  }
  return replayed;
}

std::size_t Outbox::spooled_records() const {
  util::MutexLock lock(mu_);
  return spooled_records_;
}

OutboxStats Outbox::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

StatsDaemon::StatsDaemon(simhw::Node& node, Broker& broker,
                         DaemonConfig config,
                         std::function<std::vector<long>()> jobs_provider)
    : node_(&node),
      broker_(&broker),
      config_(std::move(config)),
      routing_key_(std::string(kRoutingPrefix) + node.hostname()),
      jobs_provider_(std::move(jobs_provider)),
      sampler_(node, config_.build_options),
      outbox_(broker, node.hostname(), util::kFaultDaemonPublish,
              config_.retry, config_.faults) {
  header_ = sampler_.make_log().serialize_header();
}

const std::string& StatsDaemon::hostname() const noexcept {
  return node_->hostname();
}

DaemonStats StatsDaemon::stats() const {
  DaemonStats s = stats_;
  const OutboxStats o = outbox_.stats();
  s.total_backoff = o.total_backoff;
  s.resilience = o.resilience;
  return s;
}

bool StatsDaemon::publish_record(util::SimTime now, const std::string& mark) {
  util::WallTimer timer;
  collect::Record record;
  try {
    record = sampler_.sample(now, jobs_provider_(), mark);
  } catch (const simhw::NodeFailedError&) {
    ++stats_.publish_failures;
    return false;
  }
  stats_.total_collect_wall_s += timer.elapsed_s();
  ++stats_.collections;
  const AggFrame frame{hostname(), {++next_seq_}, {0}, header_.size(),
                       header_ + collect::HostLog::serialize_record(record)};
  Outbox::Entry entry{routing_key_, frame.serialize(), next_seq_, 1, now};
  if (broker_->publish_paused(routing_key_)) {
    // Backpressure: a Paused queue diverts the record straight to the
    // local spool — no publish attempts, no failure accounting; it
    // replays once the tier above resumes.
    outbox_.hold(std::move(entry));
  } else {
    // Replay any backlog first so the stream stays in order, then publish
    // the fresh record, or spool it behind the backlog.
    outbox_.replay(now);
    if (!outbox_.send(std::move(entry))) ++stats_.publish_failures;
  }
  last_ = now;
  return true;
}

bool StatsDaemon::on_time(util::SimTime now) {
  if (last_ != 0 && now - last_ < config_.interval) return false;
  return publish_record(now, {});
}

bool StatsDaemon::collect_now(util::SimTime now, const std::string& mark) {
  return publish_record(now, mark);
}

}  // namespace tacc::transport

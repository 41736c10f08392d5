#include "transport/consumer.hpp"

#include <exception>

#include "transport/frame.hpp"
#include "util/log.hpp"

namespace tacc::transport {

Consumer::Consumer(Broker& broker, RawArchive& archive, std::string queue,
                   RecordCallback callback, ConsumerOptions options,
                   std::shared_ptr<const util::FaultPlan> faults)
    : broker_(&broker),
      archive_(&archive),
      queue_(std::move(queue)),
      callback_(std::move(callback)),
      options_(options),
      faults_(std::move(faults)) {
  // Reclaim whatever a crashed predecessor left unacked before the first
  // consume, so its in-flight deliveries are not stranded.
  broker_->recover(queue_);
  thread_ = std::thread([this] { run(); });
}

Consumer::~Consumer() { stop(); }

void Consumer::stop() {
  if (crashed_.load()) {
    // A crashed consumer is already dead; it must not take the broker
    // (still serving its successor) down with it.
    if (thread_.joinable()) thread_.join();
    return;
  }
  stop_.store(true);
  broker_->shutdown();
  if (thread_.joinable()) thread_.join();
}

void Consumer::crash() {
  crashed_.store(true);
  if (thread_.joinable()) thread_.join();
}

void Consumer::drain() {
  using namespace std::chrono_literals;
  // Queue empty and the consumer has been idle for two consecutive polls.
  while (broker_->depth(queue_) > 0 || idle_.load() < 2) {
    std::this_thread::sleep_for(1ms);
    if (stop_.load() || crashed_.load()) return;
  }
}

util::ResilienceStats Consumer::resilience() const {
  util::ResilienceStats r;
  r.deduped = deduped_.load();
  r.requeued = crash_requeues_.load();
  return r;
}

/// Hard cap on crash-fault redeliveries of one message, so a
/// crash-rate-1.0 plan cannot livelock the queue.
constexpr std::uint32_t kMaxCrashRedeliveries = 8;

void Consumer::run() {
  using namespace std::chrono_literals;
  while (!stop_.load()) {
    auto msg = broker_->consume(queue_, 50ms);
    if (crashed_.load()) return;  // dies mid-flight; msg stays unacked
    if (!msg) {
      idle_.fetch_add(1);
      if (broker_->is_shut_down() && broker_->depth(queue_) == 0) return;
      continue;
    }
    idle_.store(0);
    try {
      // Every message is one host's frame: N records behind one header,
      // each under its (producer, seq) identity.
      const AggFrame frame = AggFrame::of_message(*msg);
      collect::HostLog chunk = frame.host_log();
      // Atomic check-and-append under one archive lock: a redelivered
      // record is suppressed here, never double-written.
      std::vector<char> fresh_mask;
      const std::size_t appended = archive_->append_unique(
          frame.producer, frame.seqs, chunk, frame.delays,
          options_.dedup_window, &fresh_mask);
      deduped_.fetch_add(frame.seqs.size() - appended);
      const bool fresh = appended > 0;
      if (fresh && callback_) {
        if (appended < chunk.records.size()) {
          // A partly redelivered frame: the callback sees the fresh part.
          std::vector<collect::Record> kept;
          for (std::size_t i = 0; i < chunk.records.size(); ++i) {
            if (fresh_mask[i]) kept.push_back(std::move(chunk.records[i]));
          }
          chunk.records = std::move(kept);
        }
        callback_(chunk.hostname, chunk);
      }
      if (fresh && faults_ &&
          msg->attempt <= kMaxCrashRedeliveries) {
        const auto fault = faults_->decide(
            util::kFaultConsumerCrash,
            msg->producer.empty() ? queue_ : msg->producer,
            util::FaultPlan::salt(msg->delivery_tag, msg->attempt), 0);
        if (fault.error) {
          // Crash-after-write, before the ack: the broker redelivers and
          // the dedup path above absorbs the duplicate.
          broker_->requeue(queue_, msg->delivery_tag);
          crash_requeues_.fetch_add(1);
          continue;
        }
      }
      broker_->ack(queue_, msg->delivery_tag);
      consumed_.fetch_add(1);
    } catch (const std::exception& e) {
      // Malformed frame: ack and drop (a real consumer dead-letters it).
      parse_errors_.fetch_add(1);
      broker_->ack(queue_, msg->delivery_tag);
      TS_LOG(Warn, "consumer") << "parse error: " << e.what();
    }
  }
}

}  // namespace tacc::transport

#include "transport/aggregator.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <string_view>
#include <utility>

#include "transport/frame.hpp"
#include "util/log.hpp"

namespace tacc::transport {
namespace {

/// The header bytes a frame's header_len marks off.
std::string_view header_of(const AggFrame& f) {
  return std::string_view(f.payload).substr(0, f.header_len);
}

}  // namespace

Aggregator::Aggregator(std::string name, std::vector<Broker*> children,
                       Broker& parent, std::string queue,
                       AggregatorOptions options,
                       std::shared_ptr<const util::FaultPlan> faults)
    : name_(std::move(name)),
      children_(std::move(children)),
      parent_(&parent),
      queue_(std::move(queue)),
      options_(std::move(options)),
      faults_(std::move(faults)),
      outbox_(parent, name_, util::kFaultAggregatorPublish, options_.retry,
              faults_) {
  thread_ = std::thread([this] { run(); });
}

Aggregator::~Aggregator() { stop(); }

void Aggregator::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

AggregatorStats Aggregator::stats() const {
  AggregatorStats s;
  {
    util::MutexLock lock(mu_);
    s = stats_;
  }
  const OutboxStats o = outbox_.stats();
  s.total_backoff = o.total_backoff;
  s.resilience.merge(o.resilience);
  return s;
}

void Aggregator::run() {
  using namespace std::chrono_literals;
  // Reclaim whatever a crashed predecessor left unacked before the first
  // consume, so its in-flight deliveries are not stranded.
  for (Broker* c : children_) c->recover(queue_);
  std::size_t rr = 0;
  while (!stop_.load()) {
    if (parent_->queue_paused(queue_)) {
      // Backpressure: stop pulling; the child queues grow, trip their own
      // watermarks, and the tiers below spool locally.
      idle_sweeps_.store(0);
      std::this_thread::sleep_for(1ms);
      continue;
    }
    bool any = false;
    for (std::size_t i = 0; i < children_.size() && !stop_.load(); ++i) {
      const std::size_t c = (rr + i) % children_.size();
      // Bounded burst per child for fairness across children.
      for (int burst = 0; burst < 256; ++burst) {
        auto msg = children_[c]->consume(queue_, 0ms);
        if (!msg) break;
        any = true;
        ingest(c, *msg);
        if (parent_->queue_paused(queue_)) break;
      }
    }
    if (!children_.empty()) rr = (rr + 1) % children_.size();
    // Frames replay at their own time: this thread has no simulated clock.
    outbox_.replay(std::nullopt);
    if (any) {
      idle_sweeps_.store(0);
      continue;
    }
    // Idle sweep: close out every pending frame, replay the spool, then
    // block briefly for new input.
    flush_all();
    outbox_.replay(std::nullopt);
    if (!children_.empty()) {
      auto msg = children_[rr]->consume(queue_, 2ms);
      if (msg) {
        idle_sweeps_.store(0);
        ingest(rr, *msg);
        continue;
      }
    }
    if (pending_records_.load() == 0) idle_sweeps_.fetch_add(1);
  }
}

void Aggregator::ingest(std::size_t child, Message& msg) {
  {
    util::MutexLock lock(mu_);
    ++stats_.consumed;
  }
  // Every message is one host's frame: a daemon's frame of one record or
  // a lower tier's coalesced frame.
  AggFrame f;
  try {
    f = AggFrame::of_message(msg);
  } catch (const std::exception& e) {
    {
      util::MutexLock lock(mu_);
      ++stats_.parse_errors;
    }
    children_[child]->ack(queue_, msg.delivery_tag);
    TS_LOG(Warn, "aggregator") << name_ << " parse error: " << e.what();
    return;
  }
  const std::size_t records = f.seqs.size();
  {
    util::MutexLock lock(mu_);
    stats_.records_in += records;
  }
  const std::string host = f.producer;
  const util::SimTime window_id = window_of(msg.sim_time);
  auto it = pending_.find(host);
  if (it != pending_.end() && !it->second.frame.seqs.empty() &&
      (it->second.window_id != window_id ||
       header_of(it->second.frame) != header_of(f))) {
    // Window rolled over (or the host's schemas changed): close the open
    // frame before starting the next one.
    flush_host(host);
    it = pending_.end();
  }
  if (it == pending_.end()) it = pending_.try_emplace(host).first;
  PendingFrame& p = it->second;
  if (p.frame.seqs.empty()) {
    p.frame = std::move(f);
    p.window_id = window_id;
    p.max_time = msg.sim_time;
  } else {
    // Append the records behind the open frame's copy of the header.
    p.frame.payload.append(f.payload, f.header_len);
    p.frame.seqs.insert(p.frame.seqs.end(), f.seqs.begin(), f.seqs.end());
    p.frame.delays.insert(p.frame.delays.end(), f.delays.begin(),
                          f.delays.end());
    p.max_time = std::max(p.max_time, msg.sim_time);
  }
  p.acks.emplace_back(child, msg.delivery_tag);
  pending_records_.fetch_add(records);
  if (options_.batch_records > 0 &&
      p.frame.seqs.size() >= options_.batch_records) {
    flush_host(host);
  }
}

void Aggregator::flush_host(std::string host) {
  const auto it = pending_.find(host);
  if (it == pending_.end() || it->second.frame.seqs.empty()) return;
  const PendingFrame p = std::move(it->second);
  pending_.erase(it);
  const std::size_t records = p.frame.seqs.size();
  pending_records_.fetch_sub(records);

  const std::uint64_t fseq = ++frame_seq_;
  if (outbox_.send(Outbox::Entry{std::string(kRoutingPrefix) + host,
                                 p.frame.serialize(), fseq, records,
                                 p.max_time})) {
    if (faults_) {
      const auto fault = faults_->decide(util::kFaultAggregatorCrash, name_,
                                         util::FaultPlan::salt(fseq, 0),
                                         p.max_time);
      if (fault.error) {
        // Crash after the upward publish, before acking the children: the
        // frame is safe upstream, the children redeliver everything
        // unacked, and the root's per-record dedup absorbs the overlap.
        crash_recover(p.acks.size());
        return;
      }
    }
    for (const auto& [c, tag] : p.acks) children_[c]->ack(queue_, tag);
    util::MutexLock lock(mu_);
    ++stats_.frames_out;
    stats_.records_out += records;
    return;
  }
  // Retries exhausted (or queued behind the spool): the spool owns the
  // records now, so ack the children.
  for (const auto& [c, tag] : p.acks) children_[c]->ack(queue_, tag);
}

void Aggregator::flush_all() {
  // std::map: deterministic flush order (host-sorted).
  while (true) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [](const auto& kv) {
                             return !kv.second.frame.seqs.empty();
                           });
    if (it == pending_.end()) break;
    flush_host(it->first);
  }
}

void Aggregator::crash_recover(std::size_t extra_unacked) {
  std::size_t requeued = extra_unacked;
  std::size_t lost = 0;
  for (const auto& [host, p] : pending_) {
    requeued += p.acks.size();
    lost += p.frame.seqs.size();
  }
  pending_.clear();
  pending_records_.fetch_sub(lost);
  // A restarted aggregator reclaims nothing in memory; the children
  // requeue every unacked delivery (in order) and the pending frames
  // rebuild from the redeliveries. The spool is the node-local durable
  // store and survives, like the daemon's.
  for (Broker* c : children_) c->recover(queue_);
  util::MutexLock lock(mu_);
  ++stats_.crashes;
  stats_.resilience.requeued += requeued;
}

}  // namespace tacc::transport

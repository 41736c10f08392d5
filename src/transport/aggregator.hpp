// Aggregator tier node (PerSyst-style tree aggregation): a real thread
// that consumes frames (the daemons' frames of one record, or lower-tier
// frames) from its child brokers, pre-reduces them in flight — same-window
// per-host frames coalesce into one AggFrame behind a single copy of the
// host's header, which each frame's header_len marks off — and republishes
// the frames upward to its parent broker. Every record keeps its daemon's
// (producer, seq) identity. A message that is not a valid frame is a parse
// error: acked and dropped, nothing forwarded.
//
// Delivery: at-least-once per tier. Child deliveries are acked only after
// the coalesced frame is safely published upward (or taken into the local
// spool), so an aggregator crash (the "aggregator.crash" fault site)
// redelivers from the children and the root consumer's per-record dedup
// absorbs the duplicates. Upward publishes go through the daemon's Outbox
// at the "aggregator.publish" site: the same retry/backoff/jitter loop and
// the same in-order spool, whose replay rounds roll fresh fault dice.
//
// Backpressure: while the parent queue is Paused (watermarks, see
// Broker::set_watermarks) the aggregator stops pulling from its children —
// their queues fill, trip their own watermarks, and the daemons below spool
// locally; the Paused signal propagates down the tree without any extra
// control channel.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "transport/broker.hpp"
#include "transport/daemon.hpp"
#include "transport/frame.hpp"
#include "util/fault.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::transport {

struct AggregatorOptions {
  /// Coalesce a host's pending records into one frame at this count.
  std::size_t batch_records = 64;
  /// Same-window coalescing bucket width in simulated time: records whose
  /// publish times fall in different buckets never share a frame
  /// (0 = unbounded, coalesce purely by count/idle).
  util::SimTime window = util::kHour;
  /// Upward publish retry/backoff/spool tuning (the daemon's policy, one
  /// tier up; spool_limit counts records across spooled frames).
  RetryPolicy retry{};
};

struct AggregatorStats {
  std::uint64_t consumed = 0;       // child deliveries taken
  std::uint64_t records_in = 0;     // raw records consumed from children
  std::uint64_t frames_out = 0;     // frames published upward
  std::uint64_t records_out = 0;    // records carried by those frames
  std::uint64_t crashes = 0;        // injected aggregator.crash events
  std::uint64_t parse_errors = 0;   // malformed bodies acked and dropped
  util::SimTime total_backoff = 0;  // virtual retry-backoff time
  util::ResilienceStats resilience;
};

class Aggregator {
 public:
  /// Starts the aggregator thread: consumes `queue` from every child
  /// broker, publishes frames to `parent` (which must outlive this).
  /// `name` is the stable identity used for fault keying and upward
  /// PublishInfo. `faults` enables "aggregator.publish" /
  /// "aggregator.crash" injection.
  Aggregator(std::string name, std::vector<Broker*> children, Broker& parent,
             std::string queue, AggregatorOptions options = {},
             std::shared_ptr<const util::FaultPlan> faults = nullptr);
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Signals the thread to stop and joins it (also called by the dtor).
  /// Leaves the brokers running: teardown order is owned by the tree.
  void stop();

  const std::string& name() const noexcept { return name_; }

  /// True when the aggregator holds no pending records, its spool is
  /// empty, and it has completed two consecutive idle sweeps — i.e. every
  /// record it ever consumed has been pushed upward (quiesce barrier).
  bool idle() const {
    return pending_records_.load() == 0 && outbox_.spooled_records() == 0 &&
           idle_sweeps_.load() >= 2;
  }

  /// Records buffered in not-yet-flushed pending frames.
  std::size_t pending_records() const noexcept {
    return pending_records_.load();
  }

  /// Records parked in the local frame spool.
  std::size_t spool_records() const { return outbox_.spooled_records(); }

  AggregatorStats stats() const TACC_EXCLUDES(mu_);

 private:
  /// One host's accumulating frame: the first frame folded in, with every
  /// later one's records appended behind its header.
  struct PendingFrame {
    AggFrame frame;
    /// (child index, delivery tag) of every child message folded in; acked
    /// on successful upward publish or spool handoff.
    std::vector<std::pair<std::size_t, std::uint64_t>> acks;
    util::SimTime window_id = 0;
    util::SimTime max_time = 0;
  };
  void run();
  /// Folds one child message into its host's pending frame, or counts a
  /// parse error and acks it.
  void ingest(std::size_t child, Message& msg);
  /// Flushes one host's pending frame upward (publish or spool). Takes
  /// the key by value: it erases the host's pending_ node, so a caller's
  /// reference into that map would dangle.
  void flush_host(std::string host);
  void flush_all();
  /// Simulated aggregator crash: nothing is acked; every child requeues
  /// its unacked deliveries and all pending frames are dropped (they
  /// rebuild from the redeliveries). `extra_unacked` counts the
  /// mid-flush frame's own deliveries.
  void crash_recover(std::size_t extra_unacked);
  util::SimTime window_of(util::SimTime t) const noexcept {
    return options_.window > 0 ? t / options_.window : 0;
  }

  const std::string name_;
  std::vector<Broker*> children_;
  Broker* parent_;
  const std::string queue_;
  const AggregatorOptions options_;
  std::shared_ptr<const util::FaultPlan> faults_;

  // Owned by the aggregator thread; no lock needed.
  std::map<std::string, PendingFrame> pending_;
  Outbox outbox_;  // upward frames: retry, spool, replay
  std::uint64_t frame_seq_ = 0;

  mutable util::Mutex mu_;
  AggregatorStats stats_ TACC_GUARDED_BY(mu_);

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> idle_sweeps_{0};
  std::atomic<std::size_t> pending_records_{0};
  std::thread thread_;
};

}  // namespace tacc::transport

// The daemon-mode data consumer (paper Fig. 2): a real thread that drains
// the broker queue, parses each message's frame (transport/frame.hpp) and
// the self-describing chunk it carries, writes the records into the
// central RawArchive immediately (real-time availability), and optionally
// feeds an online-analysis callback with each record.
//
// Delivery guarantee: the broker is at-least-once (redelivery on
// crash-before-ack); the consumer makes it exactly-once by deduplicating
// every record on its (producer, seq) identity. Each message, a daemon's
// frame of one or an aggregator's coalesced frame, goes through one
// RawArchive::append_unique — one atomic check-and-append, so a crash
// between the archive write and the ack can neither lose nor
// double-archive a record. A message that is not a valid frame, or whose
// records do not parse or differ in count from its seqs
// (AggFrame::host_log, the aggregator's rule too), is malformed: counted
// as a parse error, acked and dropped. On start the consumer recovers the
// queue (reclaiming a dead predecessor's unacked deliveries).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "transport/archive.hpp"
#include "transport/broker.hpp"
#include "util/fault.hpp"

namespace tacc::transport {

struct ConsumerOptions {
  /// Per-producer sequence numbers remembered for duplicate suppression
  /// (0 = unbounded). Must exceed the deepest possible redelivery gap.
  std::size_t dedup_window = 4096;
};

class Consumer {
 public:
  using RecordCallback = std::function<void(
      const std::string& hostname, const collect::HostLog& chunk)>;

  /// Starts the consumer thread on `queue`. Each parsed chunk is appended
  /// to the archive with ingest time = the record's own timestamp plus any
  /// injected transport delay, then handed to `callback` (may be null).
  /// `faults` enables crash-before-ack injection at "consumer.crash".
  Consumer(Broker& broker, RawArchive& archive, std::string queue,
           RecordCallback callback = nullptr, ConsumerOptions options = {},
           std::shared_ptr<const util::FaultPlan> faults = nullptr);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Signals the thread to stop and joins it (also called by the dtor).
  /// Shuts the broker down: orderly end-of-run teardown.
  void stop();

  /// Simulates a crash: the thread dies at its next checkpoint WITHOUT
  /// acking its in-flight delivery and without touching the broker, which
  /// keeps serving. A successor reclaims the unacked delivery via the
  /// recover() it performs on startup.
  void crash();

  /// Blocks until the queue is empty and everything consumed so far has
  /// been archived (used by deterministic tests).
  void drain();

  std::uint64_t consumed() const noexcept { return consumed_.load(); }
  std::uint64_t parse_errors() const noexcept {
    return parse_errors_.load();
  }

  /// Duplicate-suppression / crash-redelivery counters.
  util::ResilienceStats resilience() const;

 private:
  void run();

  Broker* broker_;
  RawArchive* archive_;
  std::string queue_;
  RecordCallback callback_;
  ConsumerOptions options_;
  std::shared_ptr<const util::FaultPlan> faults_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> crash_requeues_{0};
  std::atomic<std::uint64_t> idle_{0};
  std::thread thread_;
};

}  // namespace tacc::transport

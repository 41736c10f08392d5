// The central raw-stats archive: the per-host record streams both transport
// modes ultimately deliver, with per-record ingest timestamps so the
// latency/loss difference between the modes (paper Figs. 1 vs 2) is
// measurable. Thread-safe: the daemon-mode consumer writes from its own
// thread.
//
// The archive is also the durable side of the consumer's exactly-once
// contract: append_unique() checks-and-appends a message's (producer, seq)
// records under one lock, so a consumer that crashes between the write and
// the broker ack can neither lose a record nor archive it twice on
// redelivery.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "collect/rawfile.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::transport {

class RawArchive {
 public:
  /// Registers a host's identity/schemas (idempotent; first write wins).
  void add_header(const std::string& hostname, const std::string& arch,
                  std::vector<collect::Schema> schemas) TACC_EXCLUDES(mu_);

  /// Appends one record for a host. `ingest_time` is the simulated time at
  /// which the record became centrally visible (immediately for daemon
  /// mode; at the staged rsync for cron mode).
  void append(const std::string& hostname, collect::Record record,
              util::SimTime ingest_time) TACC_EXCLUDES(mu_);

  /// Atomically appends every record of `chunk` whose parallel (producer,
  /// seqs[i]) identity has not been seen before, ingested at record.time +
  /// delays[i], under one lock acquisition: a duplicate appends nothing,
  /// and a partly delivered frame appends only its fresh records. The
  /// per-producer seen-set is bounded to the most recent `dedup_window`
  /// sequence numbers (0 = unbounded). `fresh` (optional out) is resized
  /// parallel to seqs with 1 = appended. Returns the number of seqs that
  /// were fresh.
  std::size_t append_unique(const std::string& producer,
                            const std::vector<std::uint64_t>& seqs,
                            const collect::HostLog& chunk,
                            const std::vector<util::SimTime>& delays,
                            std::size_t dedup_window,
                            std::vector<char>* fresh = nullptr)
      TACC_EXCLUDES(mu_);

  /// Whether (producer, seq) is inside the dedup window (bench/test
  /// accounting: distinguishing delivered from dead-lettered sequences).
  bool was_seen(const std::string& producer, std::uint64_t seq) const
      TACC_EXCLUDES(mu_);

  /// Unique sequence numbers remembered for a producer.
  std::size_t seen_count(const std::string& producer) const
      TACC_EXCLUDES(mu_);

  /// Snapshot of a host's log (copy; safe across threads). Nullopt-like
  /// empty log if the host is unknown.
  collect::HostLog log(const std::string& hostname) const TACC_EXCLUDES(mu_);

  /// Runs `fn` against a host's log in place, under the archive lock —
  /// the zero-copy alternative to log() for bulk readers (serial tsdb
  /// ingest reads megabytes of records per host; copying them dominated
  /// the load). `fn` must not call back into this archive (the lock is
  /// held) and must not retain references past the call. Not called at
  /// all for an unknown host. Writers block while `fn` runs, so keep it
  /// off the daemon-consumer path for very long visits.
  void visit_log(const std::string& hostname,
                 const std::function<void(const collect::HostLog&)>& fn) const
      TACC_EXCLUDES(mu_);

  std::vector<std::string> hosts() const TACC_EXCLUDES(mu_);

  std::size_t total_records() const TACC_EXCLUDES(mu_);

  /// Distribution of (ingest_time - record.time) in seconds.
  util::RunningStat latency() const TACC_EXCLUDES(mu_);

 private:
  struct HostData {
    collect::HostLog log;
    std::vector<util::SimTime> ingest_times;  // parallel to log.records
  };
  struct DedupState {
    std::set<std::uint64_t> seen;
    std::deque<std::uint64_t> order;  // insertion order, for the window
  };

  void add_header_locked(const std::string& hostname, const std::string& arch,
                         std::vector<collect::Schema> schemas)
      TACC_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::map<std::string, HostData> hosts_ TACC_GUARDED_BY(mu_);
  std::map<std::string, DedupState> dedup_ TACC_GUARDED_BY(mu_);
};

}  // namespace tacc::transport

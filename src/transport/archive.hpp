// The central raw-stats archive: the per-host record streams both transport
// modes ultimately deliver, with per-record ingest timestamps so the
// latency/loss difference between the modes (paper Figs. 1 vs 2) is
// measurable. Thread-safe: the daemon-mode consumer writes from its own
// thread.
//
// Each host's records are stored as flat columns, not as collect::Records:
// per record its time, ingest time, mark and job ids; per block the id of
// its interned (type, device, value count) key; the counter values in one
// column. Every column grows in fixed-size chunks, so none keeps the
// geometric-growth slack of a doubling vector. A day of 1-minute records
// takes about 9 bytes per stored 8-byte value (usage()).
//
// Every read is one replay (replay()): it drives a collect::RecordSink with
// the same RecordView/RawBlockView calls RecordViewParser makes on text,
// under the host's lock. log() and visit_log() replay into a
// collect::MaterializeSink and hand out the owning HostLog copy; the tsdb
// load and Table I's job extraction pass their own sinks and never build
// Records they do not need.
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
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "collect/rawfile.hpp"
#include "collect/rawview.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::transport {

class RawArchive {
 public:
  RawArchive();
  ~RawArchive();

  /// Registers a host's identity/schemas (idempotent; first write wins).
  void add_header(const std::string& hostname, const std::string& arch,
                  std::vector<collect::Schema> schemas) TACC_EXCLUDES(mu_);

  /// Appends one record for a host. `ingest_time` is the simulated time at
  /// which the record became centrally visible (immediately for daemon
  /// mode; at the staged rsync for cron mode).
  void append(const std::string& hostname, const collect::Record& record,
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

  /// Replays a host's records into `sink`, in append order: header() once,
  /// then, for each record that keep() accepts, record() and one block()
  /// per block. A block whose type has no schema in the host header comes
  /// with a null schema. Runs under the host's lock: writers to this host
  /// wait, readers and writers of other hosts do not. `sink` must not call
  /// back into this archive. Returns false, calling nothing, for an
  /// unknown host.
  bool replay(const std::string& hostname, collect::RecordSink& sink) const
      TACC_EXCLUDES(mu_);

  /// A copy of a host's log, built by a replay into a MaterializeSink. An
  /// empty log if the host is unknown.
  collect::HostLog log(const std::string& hostname) const TACC_EXCLUDES(mu_);

  /// Runs `fn` on a copy of a host's log (log()); not called at all for an
  /// unknown host. The copy holds every record of the host: readers that
  /// need less, or no Records at all, replay() instead. No lock is held
  /// while `fn` runs.
  void visit_log(const std::string& hostname,
                 const std::function<void(const collect::HostLog&)>& fn) const
      TACC_EXCLUDES(mu_);

  std::vector<std::string> hosts() const TACC_EXCLUDES(mu_);

  std::size_t total_records() const TACC_EXCLUDES(mu_);

  /// Distribution of (ingest_time - record.time) in seconds.
  util::RunningStat latency() const TACC_EXCLUDES(mu_);

  /// What the record storage holds and takes.
  struct Usage {
    /// Allocated capacity of every column and key table (chunks, chunk
    /// directories, interned keys and marks, the key index). Host headers
    /// and the dedup windows are not counted.
    std::size_t resident_bytes = 0;
    /// Counter values stored, over every block of every host.
    std::size_t values = 0;
  };
  Usage usage() const TACC_EXCLUDES(mu_);

 private:
  struct Host;  // one host's lock, header and columns (archive.cpp)
  struct DedupState {
    std::set<std::uint64_t> seen;
    std::deque<std::uint64_t> order;  // insertion order, for the window
  };

  /// The host's entry, created if absent. Entries are never erased.
  Host& host_locked(const std::string& hostname) TACC_REQUIRES(mu_);
  /// The host's entry, or nullptr; valid for the archive's life.
  const Host* find(const std::string& hostname) const TACC_EXCLUDES(mu_);

  // Lock order: mu_, then a Host::mu.
  mutable util::Mutex mu_;
  std::map<std::string, std::unique_ptr<Host>> hosts_ TACC_GUARDED_BY(mu_);
  std::map<std::string, DedupState> dedup_ TACC_GUARDED_BY(mu_);
};

}  // namespace tacc::transport

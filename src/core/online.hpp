// Online (soft real-time) analysis of the daemon-mode stream (paper
// sections I-C and VI-B): as raw chunks arrive at the consumer, each host's
// newest interval is tested immediately; problem jobs are reported to the
// administrator — and recommended for suspension — before they can slow
// down or crash the shared filesystem.
//
// The rules are Table I's interval definition plus pipeline::FlagThresholds:
// the interval's deltas come from pipeline::HostExtract, the counter table
// Table I reads. Alerts are per host, while MetaDataRate is a node-summed
// peak, so an online metadata_storm on one node of a job implies the batch
// high_metadata_rate flag, but not the reverse.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "collect/rawfile.hpp"
#include "util/clock.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::core {

struct Alert {
  util::SimTime time = 0;
  std::string hostname;
  std::vector<long> jobids;
  std::string rule;    // "metadata_storm", "gige_traffic", "memory_pressure"
  double value = 0.0;  // the offending rate/fraction
};

class OnlineAnalyzer {
 public:
  /// Consumer callback: analyze a freshly arrived self-describing chunk.
  /// Thread-safe (the consumer calls from its own thread).
  void on_chunk(const std::string& hostname, const collect::HostLog& chunk)
      TACC_EXCLUDES(mu_);

  std::vector<Alert> alerts() const TACC_EXCLUDES(mu_);
  /// Jobs recommended for suspension (any job that triggered a
  /// metadata-storm alert).
  std::set<long> suspend_candidates() const TACC_EXCLUDES(mu_);
  std::size_t records_analyzed() const TACC_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  /// Per host, the previous record's blocks of the types the rules read.
  std::map<std::string, collect::Record> hosts_ TACC_GUARDED_BY(mu_);
  std::vector<Alert> alerts_ TACC_GUARDED_BY(mu_);
  std::set<long> suspend_ TACC_GUARDED_BY(mu_);
  std::size_t records_ TACC_GUARDED_BY(mu_) = 0;
};

}  // namespace tacc::core

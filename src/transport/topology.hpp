// Scale-out transport topology: a tree of sharded brokers with aggregator
// tiers between them (ROADMAP item "hierarchical aggregation to 100k
// nodes"; PerSyst-style tree reduction).
//
//   daemons -> leaf brokers (N shards, rendezvous-assigned per host)
//           -> tier-1 aggregators (fanout children each, coalesce frames)
//           -> ... -> root broker -> Consumer -> RawArchive
//
// Host-to-leaf assignment is rendezvous (highest-random-weight) hashing
// over FNV-1a host/broker digests: every host hashes against every leaf
// and picks the max, so growing N leaves to N+1 remaps only ~1/(N+1) of
// the hosts — no global reshuffle, and the assignment is a pure function
// of (host, N) that any component can compute without coordination.
//
// With leaf_brokers == 1 the tree degenerates to exactly the flat
// single-broker pipeline of paper Fig. 2 — same broker, no aggregators —
// so existing callers see byte-identical behavior.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "transport/aggregator.hpp"
#include "transport/broker.hpp"
#include "util/fault.hpp"

namespace tacc::transport {

/// Shape and tuning of the aggregation tree.
struct TreeOptions {
  /// Leaf broker shards daemons publish to. 1 = flat topology (no
  /// aggregator tiers at all).
  std::size_t leaf_brokers = 1;
  /// Child brokers per aggregator; tiers shrink by this factor until one
  /// root broker remains.
  std::size_t fanout = 4;
  /// Aggregator coalescing: flush a host's frame at this many records.
  std::size_t batch_records = 64;
  /// Aggregator same-window coalescing bucket (0 = unbounded).
  util::SimTime window = util::kHour;
  /// Backpressure: every tier's queue pauses at this depth and resumes
  /// at half of it (0 = off).
  std::size_t high_watermark = 0;
  /// Upward publish retry/spool policy shared by all aggregators.
  RetryPolicy retry{};
};

/// One row of the per-tier stats rollup: tier 0 = leaf brokers plus the
/// aggregators that drain them, the last tier = the root broker.
struct TierStats {
  std::size_t tier = 0;
  std::size_t brokers = 0;
  std::size_t aggregators = 0;
  std::size_t queue_depth = 0;     // messages waiting across the tier
  std::size_t unacked = 0;         // delivered, not yet acked
  std::size_t dead_letters = 0;    // parked in tier DLQs
  std::size_t spool_records = 0;   // records in aggregator/daemon spools
  std::size_t pending_records = 0; // records in open aggregator frames
  util::ResilienceStats resilience;
};

class AggregationTree {
 public:
  /// Builds the broker tiers and starts the aggregator threads. Every
  /// broker declares `queue` bound to "stats.*" (kRoutingPrefix).
  /// `faults` is installed on every broker and aggregator (may be null).
  AggregationTree(std::string queue, TreeOptions options,
                  std::shared_ptr<const util::FaultPlan> faults);
  ~AggregationTree();

  AggregationTree(const AggregationTree&) = delete;
  AggregationTree& operator=(const AggregationTree&) = delete;

  /// Stops the aggregator threads (idempotent; also run by the dtor).
  /// Brokers stay up — the consumer owns root shutdown.
  void stop();

  /// The broker a host's daemon publishes to (rendezvous assignment).
  Broker& leaf_for(std::string_view host) {
    return *tiers_[0][leaf_index(host)];
  }
  std::size_t leaf_index(std::string_view host) const {
    return rendezvous_pick(host, tiers_[0].size());
  }

  /// Pure assignment function: which of `n` shards owns `host`.
  static std::size_t rendezvous_pick(std::string_view host, std::size_t n);

  /// The root broker the Consumer drains.
  Broker& root() { return *tiers_.back()[0]; }
  const Broker& root() const { return *tiers_.back()[0]; }

  std::size_t tier_count() const { return tiers_.size(); }
  std::size_t broker_count(std::size_t tier) const {
    return tiers_[tier].size();
  }
  std::size_t aggregator_count() const { return aggregators_.size(); }

  /// Blocks until every non-root queue is empty (nothing waiting, nothing
  /// unacked) and every aggregator is idle with an empty spool — i.e. all
  /// in-flight records have reached the root queue. The root itself is the
  /// consumer's to drain. Requires the tiers above to keep draining (a
  /// live consumer) when watermarks are enabled.
  void quiesce();

  /// Per-tier depth/spool/resilience rollup (transport layers only; the
  /// monitor folds daemons and the consumer in).
  std::vector<TierStats> tier_stats() const;

  /// Every broker's + aggregator's resilience counters merged.
  util::ResilienceStats resilience() const;

  /// Records parked in aggregator spools.
  std::size_t spool_records() const;

  /// Removes and returns the dead letters of every tier's queue.
  std::vector<Message> drain_all_dead_letters();

 private:
  const std::string queue_;
  const TreeOptions options_;
  /// tiers_[0] = leaves, tiers_.back() = the single root.
  std::vector<std::vector<std::unique_ptr<Broker>>> tiers_;
  /// Aggregator j of group t consumes tiers_[t] block j, feeds
  /// tiers_[t+1][j]; agg_tier_[k] records the source tier of
  /// aggregators_[k].
  std::vector<std::unique_ptr<Aggregator>> aggregators_;
  std::vector<std::size_t> agg_tier_;
};

}  // namespace tacc::transport

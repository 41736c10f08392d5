#include "transport/topology.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace tacc::transport {

AggregationTree::AggregationTree(
    std::string queue, TreeOptions options,
    std::shared_ptr<const util::FaultPlan> faults)
    : queue_(std::move(queue)), options_(std::move(options)) {
  // Tier sizes shrink by `fanout` until a single root remains.
  const std::size_t fanout = options_.fanout < 2 ? 2 : options_.fanout;
  std::vector<std::size_t> sizes;
  sizes.push_back(options_.leaf_brokers == 0 ? 1 : options_.leaf_brokers);
  while (sizes.back() > 1) {
    sizes.push_back((sizes.back() + fanout - 1) / fanout);
  }
  for (std::size_t t = 0; t < sizes.size(); ++t) {
    std::vector<std::unique_ptr<Broker>> tier;
    tier.reserve(sizes[t]);
    for (std::size_t j = 0; j < sizes[t]; ++j) {
      auto broker = std::make_unique<Broker>();
      broker->declare_queue(queue_);
      broker->bind(queue_, std::string(kRoutingPrefix) + "*");
      if (faults) broker->set_fault_plan(faults);
      if (options_.high_watermark > 0) {
        broker->set_watermarks(queue_, options_.high_watermark);
      }
      tier.push_back(std::move(broker));
    }
    tiers_.push_back(std::move(tier));
  }
  // One aggregator per upper-tier broker, draining a contiguous block of
  // `fanout` children below it.
  for (std::size_t t = 0; t + 1 < tiers_.size(); ++t) {
    for (std::size_t j = 0; j < tiers_[t + 1].size(); ++j) {
      std::vector<Broker*> children;
      const std::size_t lo = j * fanout;
      const std::size_t hi = std::min(lo + fanout, tiers_[t].size());
      for (std::size_t i = lo; i < hi; ++i) {
        children.push_back(tiers_[t][i].get());
      }
      AggregatorOptions agg_opts;
      agg_opts.batch_records = options_.batch_records;
      agg_opts.window = options_.window;
      agg_opts.retry = options_.retry;
      aggregators_.push_back(std::make_unique<Aggregator>(
          "agg-" + std::to_string(t + 1) + "-" + std::to_string(j),
          std::move(children), *tiers_[t + 1][j], queue_, agg_opts, faults));
      agg_tier_.push_back(t);
    }
  }
}

AggregationTree::~AggregationTree() { stop(); }

void AggregationTree::stop() {
  for (auto& agg : aggregators_) agg->stop();
}

std::size_t AggregationTree::rendezvous_pick(std::string_view host,
                                             std::size_t n) {
  if (n <= 1) return 0;
  const std::uint64_t host_hash = util::fnv1a(host);
  std::size_t best = 0;
  std::uint64_t best_score = 0;
  for (std::size_t i = 0; i < n; ++i) {
    char label[32];
    const int len = std::snprintf(label, sizeof label, "broker-%zu", i);
    std::uint64_t state =
        host_hash ^ util::fnv1a(std::string_view(label,
                                                 static_cast<std::size_t>(len)));
    const std::uint64_t score = util::splitmix64(state);
    if (i == 0 || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

void AggregationTree::quiesce() {
  using namespace std::chrono_literals;
  for (;;) {
    bool busy = false;
    for (std::size_t t = 0; t + 1 < tiers_.size() && !busy; ++t) {
      for (const auto& b : tiers_[t]) {
        if (b->depth(queue_) > 0 || b->unacked_depth(queue_) > 0) {
          busy = true;
          break;
        }
      }
    }
    if (!busy) {
      for (const auto& agg : aggregators_) {
        if (!agg->idle()) {
          busy = true;
          break;
        }
      }
    }
    if (!busy) return;
    std::this_thread::sleep_for(1ms);
  }
}

std::vector<TierStats> AggregationTree::tier_stats() const {
  std::vector<TierStats> out(tiers_.size());
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    TierStats& row = out[t];
    row.tier = t;
    row.brokers = tiers_[t].size();
    for (const auto& b : tiers_[t]) {
      row.queue_depth += b->depth(queue_);
      row.unacked += b->unacked_depth(queue_);
      row.dead_letters += b->dead_letter_depth(queue_);
      row.resilience.merge(b->stats().resilience);
    }
  }
  for (std::size_t k = 0; k < aggregators_.size(); ++k) {
    TierStats& row = out[agg_tier_[k]];
    ++row.aggregators;
    row.spool_records += aggregators_[k]->spool_records();
    row.pending_records += aggregators_[k]->pending_records();
    row.resilience.merge(aggregators_[k]->stats().resilience);
  }
  return out;
}

util::ResilienceStats AggregationTree::resilience() const {
  util::ResilienceStats total;
  for (const auto& tier : tiers_) {
    for (const auto& b : tier) total.merge(b->stats().resilience);
  }
  for (const auto& agg : aggregators_) total.merge(agg->stats().resilience);
  return total;
}

std::size_t AggregationTree::spool_records() const {
  std::size_t n = 0;
  for (const auto& agg : aggregators_) n += agg->spool_records();
  return n;
}

std::vector<Message> AggregationTree::drain_all_dead_letters() {
  std::vector<Message> out;
  for (auto& tier : tiers_) {
    for (auto& b : tier) {
      auto dead = b->drain_dead_letters(queue_);
      out.insert(out.end(), std::make_move_iterator(dead.begin()),
                 std::make_move_iterator(dead.end()));
    }
  }
  return out;
}

}  // namespace tacc::transport

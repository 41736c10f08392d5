// The fault-injection subsystem: FaultPlan decision determinism, per-site
// isolation, outage windows — and the transport-layer behaviors it drives
// (broker drop/duplicate/delay/dead-letter, daemon retry + spool + replay,
// the replay rule the daemon shares with the aggregator tier, cron
// rsync/disk faults with catch-up).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "simhw/cluster.hpp"
#include "transport/consumer.hpp"
#include "transport/cron.hpp"
#include "transport/daemon.hpp"
#include "util/fault.hpp"

namespace tacc {
namespace {

using transport::Broker;
using transport::PublishInfo;
using util::FaultPlan;
using util::FaultSpec;

constexpr util::SimTime kMidnight = 1451606400LL * util::kSecond;

simhw::Cluster small_cluster(int n = 1) {
  simhw::ClusterConfig cc;
  cc.num_nodes = n;
  cc.topology = simhw::Topology{1, 2, false};
  cc.phi_fraction = 0.0;
  return simhw::Cluster(cc);
}

TEST(FaultPlan, EmptyPlanDecidesNothing) {
  FaultPlan plan(7);
  const auto d = plan.decide("broker.publish", "host", 1, kMidnight);
  EXPECT_FALSE(d.any());
  EXPECT_EQ(plan.spec("broker.publish"), nullptr);
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, DecisionsAreDeterministic) {
  FaultPlan plan(42);
  FaultSpec spec;
  spec.drop_rate = 0.5;
  spec.duplicate_rate = 0.3;
  spec.delay_rate = 0.4;
  spec.delay_min = util::kSecond;
  spec.delay_max = 10 * util::kSecond;
  plan.set("broker.publish", spec);
  for (std::uint64_t salt = 0; salt < 200; ++salt) {
    const auto a = plan.decide("broker.publish", "c400-001", salt, kMidnight);
    const auto b = plan.decide("broker.publish", "c400-001", salt, kMidnight);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.delay, b.delay);
  }
}

TEST(FaultPlan, SeedAndKeyChangeOutcomes) {
  FaultSpec spec;
  spec.drop_rate = 0.5;
  FaultPlan a(1);
  FaultPlan b(2);
  a.set("broker.publish", spec);
  b.set("broker.publish", spec);
  int diff_seed = 0;
  int diff_key = 0;
  for (std::uint64_t salt = 0; salt < 500; ++salt) {
    diff_seed += a.decide("broker.publish", "h", salt, 0).drop !=
                 b.decide("broker.publish", "h", salt, 0).drop;
    diff_key += a.decide("broker.publish", "h", salt, 0).drop !=
                a.decide("broker.publish", "g", salt, 0).drop;
  }
  EXPECT_GT(diff_seed, 50);
  EXPECT_GT(diff_key, 50);
}

TEST(FaultPlan, RatesRoughlyRespected) {
  FaultPlan plan(99);
  FaultSpec spec;
  spec.drop_rate = 0.25;
  plan.set("broker.publish", spec);
  int drops = 0;
  const int n = 4000;
  for (std::uint64_t salt = 0; salt < n; ++salt) {
    drops += plan.decide("broker.publish", "h", salt, 0).drop;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.25, 0.03);
}

TEST(FaultPlan, OutageWindowForcesErrors) {
  FaultPlan plan(5);
  FaultSpec spec;
  spec.outages.push_back({kMidnight, kMidnight + util::kHour});
  plan.set("daemon.publish", spec);
  EXPECT_TRUE(plan.decide("daemon.publish", "h", 1, kMidnight).error);
  EXPECT_TRUE(
      plan.decide("daemon.publish", "h", 1, kMidnight + util::kMinute).error);
  EXPECT_FALSE(
      plan.decide("daemon.publish", "h", 1, kMidnight + util::kHour).error);
  EXPECT_FALSE(plan.decide("daemon.publish", "h", 1, kMidnight - 1).error);
}

TEST(FaultPlan, SitesAreIndependent) {
  FaultPlan plan(5);
  FaultSpec spec;
  spec.drop_rate = 1.0;
  plan.set("broker.publish", spec);
  EXPECT_TRUE(plan.decide("broker.publish", "h", 1, 0).drop);
  EXPECT_FALSE(plan.decide("daemon.publish", "h", 1, 0).any());
  EXPECT_EQ(plan.sites(), std::vector<std::string>{"broker.publish"});
}

TEST(Broker, InjectedDropFailsThePublish) {
  Broker broker;
  broker.bind("q", "#");
  auto plan = std::make_shared<FaultPlan>(3);
  FaultSpec spec;
  spec.drop_rate = 1.0;
  plan->set("broker.publish", spec);
  broker.set_fault_plan(plan);
  PublishInfo info;
  info.producer = "h";
  info.seq = 1;
  EXPECT_EQ(broker.publish("k", "body", info), 0u);
  EXPECT_EQ(broker.depth("q"), 0u);
  EXPECT_EQ(broker.stats().resilience.injected_drops, 1u);
}

TEST(Broker, InjectedDuplicateEnqueuesTwoCopies) {
  Broker broker;
  broker.bind("q", "#");
  auto plan = std::make_shared<FaultPlan>(3);
  FaultSpec spec;
  spec.duplicate_rate = 1.0;
  plan->set("broker.publish", spec);
  broker.set_fault_plan(plan);
  PublishInfo info;
  info.producer = "h";
  info.seq = 7;
  EXPECT_EQ(broker.publish("k", "body", info), 1u);
  EXPECT_EQ(broker.depth("q"), 2u);
  EXPECT_EQ(broker.stats().resilience.injected_duplicates, 1u);
  const auto first = broker.consume("q", std::chrono::milliseconds(10));
  const auto second = broker.consume("q", std::chrono::milliseconds(10));
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->seq, 7u);
  EXPECT_EQ(second->seq, 7u);
  EXPECT_NE(first->delivery_tag, second->delivery_tag);
}

TEST(Broker, InjectedDelayRidesTheMessage) {
  Broker broker;
  broker.bind("q", "#");
  auto plan = std::make_shared<FaultPlan>(3);
  FaultSpec spec;
  spec.delay_rate = 1.0;
  spec.delay_min = 5 * util::kSecond;
  spec.delay_max = 5 * util::kSecond;
  plan->set("broker.publish", spec);
  broker.set_fault_plan(plan);
  EXPECT_EQ(broker.publish("k", "body", PublishInfo{"h", 1, 0, 0}), 1u);
  const auto msg = broker.consume("q", std::chrono::milliseconds(10));
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->delay, 5 * util::kSecond);
  EXPECT_EQ(broker.stats().resilience.injected_delays, 1u);
}

TEST(Broker, QueueLimitDeadLettersOverflow) {
  Broker broker;
  broker.bind("q", "#");
  broker.set_queue_limit("q", 2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(broker.publish("k", "m" + std::to_string(i)), 1u);
  }
  EXPECT_EQ(broker.depth("q"), 2u);
  EXPECT_EQ(broker.dead_letter_depth("q"), 3u);
  EXPECT_EQ(broker.stats().resilience.dead_lettered, 3u);
  const auto dead = broker.drain_dead_letters("q");
  ASSERT_EQ(dead.size(), 3u);
  EXPECT_EQ(dead[0].body, "m2");
  EXPECT_EQ(broker.dead_letter_depth("q"), 0u);
}

TEST(Broker, RecoverRequeuesUnackedInOrder) {
  Broker broker;
  broker.bind("q", "#");
  broker.publish("k", "a");
  broker.publish("k", "b");
  const auto first = broker.consume("q", std::chrono::milliseconds(10));
  const auto second = broker.consume("q", std::chrono::milliseconds(10));
  ASSERT_TRUE(first && second);
  broker.recover("q");
  EXPECT_EQ(broker.depth("q"), 2u);
  const auto replay = broker.consume("q", std::chrono::milliseconds(10));
  ASSERT_TRUE(replay);
  EXPECT_EQ(replay->body, "a");  // original order restored
  EXPECT_EQ(replay->attempt, 2u);
  EXPECT_EQ(broker.stats().redelivered, 2u);
}

TEST(Daemon, RetriesThroughTransientDropsWithoutSpooling) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("q", "#");
  auto plan = std::make_shared<FaultPlan>(11);
  FaultSpec spec;
  spec.drop_rate = 0.5;  // all 16 attempts drop with probability 0.5^16
  plan->set("broker.publish", spec);
  broker.set_fault_plan(plan);
  transport::DaemonConfig dc;
  dc.faults = plan;
  dc.retry.max_attempts = 16;
  transport::StatsDaemon daemon(cluster.node(0), broker, dc,
                                [] { return std::vector<long>{}; });
  for (int i = 0; i < 20; ++i) {
    daemon.collect_now(kMidnight + i * util::kMinute, {});
  }
  EXPECT_EQ(daemon.spool_depth(), 0u);
  EXPECT_EQ(daemon.stats().collections, 20u);
  EXPECT_GT(daemon.stats().resilience.retries, 0u);
  EXPECT_GT(broker.stats().resilience.injected_drops, 0u);
  EXPECT_EQ(broker.depth("q"), 20u);
}

TEST(Daemon, OutageSpoolsThenReplaysInOrder) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("q", "#");
  auto plan = std::make_shared<FaultPlan>(11);
  FaultSpec spec;
  spec.outages.push_back({kMidnight, kMidnight + util::kHour});
  plan->set("daemon.publish", spec);
  transport::DaemonConfig dc;
  dc.faults = plan;
  transport::StatsDaemon daemon(cluster.node(0), broker, dc,
                                [] { return std::vector<long>{}; });
  // Six collections inside the outage: all spooled, none published.
  for (int i = 0; i < 6; ++i) {
    daemon.collect_now(kMidnight + i * util::kMinute, {});
  }
  EXPECT_EQ(daemon.spool_depth(), 6u);
  EXPECT_EQ(daemon.stats().resilience.spooled, 6u);
  EXPECT_GT(daemon.stats().total_backoff, 0);
  EXPECT_EQ(broker.depth("q"), 0u);
  // First collection after the outage replays the spool, in order, ahead
  // of the fresh record.
  daemon.collect_now(kMidnight + 2 * util::kHour, {});
  EXPECT_EQ(daemon.spool_depth(), 0u);
  EXPECT_EQ(daemon.stats().resilience.replayed, 6u);
  EXPECT_EQ(broker.depth("q"), 7u);
  std::uint64_t prev_seq = 0;
  for (int i = 0; i < 7; ++i) {
    const auto msg = broker.consume("q", std::chrono::milliseconds(10));
    ASSERT_TRUE(msg);
    EXPECT_GT(msg->seq, prev_seq);
    prev_seq = msg->seq;
  }
}

TEST(Daemon, SpoolLimitAgesOutOldestRecords) {
  auto cluster = small_cluster(1);
  Broker broker;  // no binding: every publish is unroutable
  auto plan = std::make_shared<FaultPlan>(1);
  transport::DaemonConfig dc;
  dc.faults = plan;
  dc.retry.max_attempts = 1;
  dc.retry.spool_limit = 3;
  transport::StatsDaemon daemon(cluster.node(0), broker, dc,
                                [] { return std::vector<long>{}; });
  for (int i = 0; i < 5; ++i) {
    daemon.collect_now(kMidnight + i * util::kMinute, {});
  }
  EXPECT_EQ(daemon.spool_depth(), 3u);
  EXPECT_EQ(daemon.stats().resilience.spool_dropped, 2u);
}

/// Consumes `n` messages and checks they carry seqs 1..n in order.
void expect_seqs_in_order(Broker& broker, std::uint64_t n) {
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    const auto msg = broker.consume("q", std::chrono::milliseconds(10));
    ASSERT_TRUE(msg);
    EXPECT_EQ(msg->seq, seq);
  }
  EXPECT_EQ(broker.depth("q"), 0u);
}

// Replay liveness, one rule for both users of the shared Outbox: a record
// whose attempts all drew faults rolls fresh dice on each later replay
// round, so replay passes empty the spool, in order. When replays reused
// the first attempts' salts, the daemon cases left 320 (publish errors)
// and 200 (broker drops) of 400 records spooled, none ever replayed.
TEST(Outbox, ReplayRoundsEmptyTheSpoolAtBothTiers) {
  constexpr std::uint64_t kRecords = 400;
  FaultSpec errors;
  errors.error_rate = 0.3;
  FaultSpec drops;
  drops.drop_rate = 0.3;
  for (const auto& [site, spec] :
       {std::pair{util::kFaultDaemonPublish, errors},
        std::pair{util::kFaultBrokerPublish, drops}}) {
    SCOPED_TRACE(std::string(site));
    auto cluster = small_cluster(1);
    Broker broker;
    broker.bind("q", "#");
    auto plan = std::make_shared<FaultPlan>(7);
    plan->set(site, spec);
    broker.set_fault_plan(plan);
    transport::DaemonConfig dc;
    dc.interval = util::kMinute;
    dc.faults = plan;
    transport::StatsDaemon daemon(cluster.node(0), broker, dc,
                                  [] { return std::vector<long>{}; });
    util::SimTime now = kMidnight;
    for (std::uint64_t i = 0; i < kRecords; ++i, now += util::kMinute) {
      ASSERT_TRUE(daemon.on_time(now));
    }
    for (int pass = 0; pass < 100 && daemon.spool_depth() > 0; ++pass) {
      daemon.flush_spool(now);
    }
    const auto r = daemon.stats().resilience;
    EXPECT_GT(r.spooled, 0u);
    EXPECT_EQ(daemon.spool_depth(), 0u);
    EXPECT_EQ(r.replayed, r.spooled);
    expect_seqs_in_order(broker, kRecords);
  }
  // The aggregator tier: its Outbox at "aggregator.publish", keyed by the
  // aggregator's name, replaying frames at their own time.
  Broker parent;
  parent.bind("q", "stats.*");
  auto plan = std::make_shared<FaultPlan>(7);
  plan->set(util::kFaultAggregatorPublish, errors);
  transport::Outbox outbox(parent, "agg-1-0", util::kFaultAggregatorPublish,
                           {}, plan);
  for (std::uint64_t seq = 1; seq <= kRecords; ++seq) {
    outbox.send({"stats.c1", "frame " + std::to_string(seq), seq, 1,
                 kMidnight + static_cast<util::SimTime>(seq) * util::kMinute});
    outbox.replay(std::nullopt);
  }
  for (int pass = 0; pass < 100 && outbox.spooled_records() > 0; ++pass) {
    outbox.replay(std::nullopt);
  }
  const auto r = outbox.stats().resilience;
  EXPECT_GT(r.spooled, 0u);
  EXPECT_EQ(outbox.spooled_records(), 0u);
  EXPECT_EQ(r.replayed, r.spooled);
  expect_seqs_in_order(parent, kRecords);
}

TEST(Consumer, DedupsDuplicateDeliveries) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("raw", "stats.*");
  auto plan = std::make_shared<FaultPlan>(21);
  FaultSpec spec;
  spec.duplicate_rate = 1.0;  // every publish enqueued twice
  plan->set("broker.publish", spec);
  broker.set_fault_plan(plan);
  transport::RawArchive archive;
  transport::Consumer consumer(broker, archive, "raw");
  transport::DaemonConfig dc;
  dc.faults = plan;
  transport::StatsDaemon daemon(cluster.node(0), broker, dc,
                                [] { return std::vector<long>{}; });
  for (int i = 0; i < 10; ++i) {
    daemon.collect_now(kMidnight + i * util::kMinute, {});
  }
  consumer.drain();
  EXPECT_EQ(archive.total_records(), 10u);
  EXPECT_EQ(consumer.resilience().deduped, 10u);
  EXPECT_EQ(archive.seen_count(cluster.node(0).hostname()), 10u);
  consumer.stop();
}

TEST(Consumer, CrashFaultRequeuesThenDedups) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("raw", "stats.*");
  auto plan = std::make_shared<FaultPlan>(31);
  FaultSpec spec;
  spec.error_rate = 0.5;
  plan->set("consumer.crash", spec);
  transport::RawArchive archive;
  transport::Consumer consumer(broker, archive, "raw", nullptr, {}, plan);
  transport::StatsDaemon daemon(cluster.node(0), broker, {},
                                [] { return std::vector<long>{}; });
  for (int i = 0; i < 20; ++i) {
    daemon.collect_now(kMidnight + i * util::kMinute, {});
  }
  consumer.drain();
  EXPECT_EQ(archive.total_records(), 20u);  // exactly-once despite requeues
  const auto r = consumer.resilience();
  EXPECT_GT(r.requeued, 0u);
  EXPECT_EQ(r.deduped, r.requeued);  // every crash redelivery was absorbed
  consumer.stop();
}

TEST(Archive, AppendUniqueWindowForgetsOldSeqs) {
  transport::RawArchive archive;
  collect::HostLog chunk;  // header-only: dedup bookkeeping still applies
  chunk.hostname = "h";
  EXPECT_TRUE(archive.append_unique("h", {1}, chunk, {0}, 2));
  EXPECT_TRUE(archive.append_unique("h", {2}, chunk, {0}, 2));
  EXPECT_FALSE(archive.append_unique("h", {2}, chunk, {0}, 2));
  EXPECT_TRUE(archive.append_unique("h", {3}, chunk, {0}, 2));  // evicts 1
  EXPECT_FALSE(archive.was_seen("h", 1));
  EXPECT_TRUE(archive.was_seen("h", 3));
  EXPECT_EQ(archive.seen_count("h"), 2u);
}

TEST(Cron, RsyncFailureCatchesUpNextWindow) {
  auto cluster = small_cluster(1);
  transport::RawArchive archive;
  transport::CronConfig cc;
  cc.interval = util::kHour;
  auto plan = std::make_shared<FaultPlan>(8);
  FaultSpec spec;
  // Fail day 1's staging attempt deterministically, succeed afterwards.
  spec.outages.push_back({kMidnight, kMidnight + util::kDay + 6 * util::kHour});
  plan->set("cron.rsync", spec);
  cc.faults = plan;
  transport::CronMode cron(cluster, archive, cc,
                           [](std::size_t) { return std::vector<long>{}; });
  // Two full days plus the staging window of day 3.
  for (util::SimTime t = kMidnight; t <= kMidnight + 54 * util::kHour;
       t += util::kHour) {
    cron.on_time(t);
  }
  EXPECT_GT(cron.stats().rsync_failures, 0u);
  // Day 1 AND day 2 records all staged by day 3's window: nothing lost.
  EXPECT_EQ(cron.stats().lost_records, 0u);
  EXPECT_GE(cron.stats().staged_records, 48u);
  EXPECT_EQ(cron.stats().staged_records + cron.backlog(),
            cron.stats().collected_records);
}

TEST(Cron, DiskFullDropsSamplesButKeepsCounting) {
  auto cluster = small_cluster(1);
  transport::RawArchive archive;
  transport::CronConfig cc;
  cc.interval = 10 * util::kMinute;
  auto plan = std::make_shared<FaultPlan>(8);
  FaultSpec spec;
  spec.error_rate = 1.0;
  plan->set("cron.disk", spec);
  cc.faults = plan;
  transport::CronMode cron(cluster, archive, cc,
                           [](std::size_t) { return std::vector<long>{}; });
  for (int i = 0; i < 6; ++i) {
    cron.on_time(kMidnight + i * 10 * util::kMinute);
  }
  EXPECT_EQ(cron.stats().collected_records, 6u);
  EXPECT_EQ(cron.stats().disk_full_drops, 6u);
  EXPECT_EQ(cron.stats().lost_records, 6u);
  EXPECT_EQ(cron.backlog(), 0u);
}

}  // namespace
}  // namespace tacc

// Consumer crash/restart: a consumer killed mid-drain leaves unacked
// deliveries behind; its successor recovers them from the broker and the
// archive's (producer, seq) dedup makes redelivery exactly-once — zero
// records lost, zero records archived twice.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/monitor.hpp"
#include "simhw/cluster.hpp"
#include "transport/consumer.hpp"
#include "transport/daemon.hpp"
#include "transport/frame.hpp"
#include "util/fault.hpp"

namespace tacc {
namespace {

constexpr util::SimTime kMidnight = 1451606400LL * util::kSecond;

simhw::Cluster small_cluster(int n) {
  simhw::ClusterConfig cc;
  cc.num_nodes = n;
  cc.topology = simhw::Topology{1, 4, false};
  cc.phi_fraction = 0.0;
  return simhw::Cluster(cc);
}

/// Every archived record is unique per (host, time, mark) — a duplicated
/// redelivery would show up as two identical records in one host's log.
void expect_no_duplicate_records(const transport::RawArchive& archive) {
  for (const auto& host : archive.hosts()) {
    const auto log = archive.log(host);
    std::map<std::pair<util::SimTime, std::string>, int> counts;
    for (const auto& rec : log.records) {
      ++counts[{rec.time, rec.mark}];
    }
    for (const auto& [key, n] : counts) {
      EXPECT_EQ(n, 1) << host << " t=" << key.first << " mark=" << key.second;
    }
  }
}

TEST(CrashRecovery, MidDrainCrashLosesNothingDuplicatesNothing) {
  auto cluster = small_cluster(1);
  transport::Broker broker;
  broker.bind("raw", "stats.*");
  transport::RawArchive archive;
  transport::StatsDaemon daemon(cluster.node(0), broker, {},
                                [] { return std::vector<long>{}; });
  const int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) {
    daemon.collect_now(kMidnight + i * util::kMinute, {});
  }
  // First consumer: crash it somewhere mid-drain, in-flight delivery
  // unacked. (The crash flag is checked after consume() returns, so at
  // most one message is consumed-but-unacked; more may simply still be
  // queued.)
  {
    // The callback throttles the consumer so the crash lands mid-drain
    // rather than after it already emptied the queue.
    transport::Consumer first(
        broker, archive, "raw",
        [](const std::string&, const collect::HostLog&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    while (archive.total_records() < kRecords / 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    first.crash();
  }
  const auto archived_at_crash = archive.total_records();
  EXPECT_LT(archived_at_crash, static_cast<std::size_t>(kRecords));

  // Second consumer against the SAME broker and archive: its constructor
  // recover()s the stranded unacked deliveries.
  transport::Consumer second(broker, archive, "raw");
  second.drain();
  EXPECT_EQ(archive.total_records(), static_cast<std::size_t>(kRecords));
  EXPECT_EQ(archive.seen_count(daemon.hostname()),
            static_cast<std::size_t>(kRecords));
  expect_no_duplicate_records(archive);
  second.stop();
}

TEST(CrashRecovery, CrashWithUnackedDeliveryIsRedeliveredOnce) {
  auto cluster = small_cluster(1);
  transport::Broker broker;
  broker.bind("raw", "stats.*");
  transport::RawArchive archive;
  transport::StatsDaemon daemon(cluster.node(0), broker, {},
                                [] { return std::vector<long>{}; });
  daemon.collect_now(kMidnight, {});
  // Consume by hand and "crash" without acking: the classic
  // archived-but-unacked window.
  {
    auto msg = broker.consume("raw", std::chrono::milliseconds(100));
    ASSERT_TRUE(msg);
    // The daemon's frame of one: its identity, a header_len that ends the
    // header, and a payload that parses to the one record.
    const auto frame = transport::AggFrame::of_message(*msg);
    EXPECT_EQ(frame.producer, daemon.hostname());
    EXPECT_EQ(frame.seqs, std::vector<std::uint64_t>{1});
    collect::HostLog header;
    EXPECT_EQ(frame.header_len, header.parse_header(frame.payload));
    const auto chunk = collect::HostLog::parse(frame.payload);
    ASSERT_EQ(chunk.records.size(), 1u);
    ASSERT_TRUE(archive.append_unique(frame.producer, frame.seqs, chunk,
                                      frame.delays, 0));
    // No ack: the consumer dies right here.
  }
  EXPECT_EQ(archive.total_records(), 1u);
  // Successor recovers and redelivers; dedup absorbs the duplicate.
  transport::Consumer successor(broker, archive, "raw");
  successor.drain();
  EXPECT_EQ(archive.total_records(), 1u);
  EXPECT_EQ(successor.resilience().deduped, 1u);
  EXPECT_EQ(broker.depth("raw"), 0u);
  successor.stop();
}

TEST(CrashRecovery, MonitorCrashRestartEndToEnd) {
  auto cluster = small_cluster(4);
  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.interval = 10 * util::kMinute;
  mc.online_analysis = false;
  core::ClusterMonitor monitor(cluster, mc);

  monitor.advance_to(monitor.now() + 2 * util::kHour);
  monitor.crash_consumer();
  // The cluster keeps collecting while no consumer is alive: the broker
  // queues (at-least-once buffering).
  monitor.advance_to(monitor.now() + 2 * util::kHour);
  EXPECT_GT(monitor.broker().depth("raw_stats"), 0u);
  monitor.restart_consumer();
  monitor.advance_to(monitor.now() + util::kHour);
  monitor.drain();

  EXPECT_EQ(monitor.archive().total_records(), monitor.published_unique());
  EXPECT_EQ(monitor.spool_depth(), 0u);
  expect_no_duplicate_records(monitor.archive());
}

TEST(CrashRecovery, RepeatedCrashesUnderBrokerDuplication) {
  // Stack the deck: broker duplicates 30% of publishes AND the consumer is
  // crashed twice mid-run. Delivery must still be exactly-once.
  auto cluster = small_cluster(2);
  auto plan = std::make_shared<util::FaultPlan>(1234);
  util::FaultSpec dup;
  dup.duplicate_rate = 0.3;
  plan->set(std::string(util::kFaultBrokerPublish), dup);

  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.interval = 10 * util::kMinute;
  mc.online_analysis = false;
  mc.fault_plan = plan;
  core::ClusterMonitor monitor(cluster, mc);

  for (int round = 0; round < 2; ++round) {
    monitor.advance_to(monitor.now() + util::kHour);
    monitor.crash_consumer();
    monitor.advance_to(monitor.now() + util::kHour);
    monitor.restart_consumer();
  }
  monitor.advance_to(monitor.now() + util::kHour);
  monitor.drain();

  EXPECT_EQ(monitor.archive().total_records(), monitor.published_unique());
  expect_no_duplicate_records(monitor.archive());
  const auto r = monitor.resilience_stats();
  EXPECT_GT(r.injected_duplicates, 0u);
  EXPECT_EQ(r.deduped, r.injected_duplicates + r.requeued);
}

}  // namespace
}  // namespace tacc

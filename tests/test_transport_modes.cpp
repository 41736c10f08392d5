// Daemon- and cron-mode transports end to end: self-describing chunks,
// real-time consumption, rotation/staging latency, failure loss.
#include <gtest/gtest.h>

#include "simhw/cluster.hpp"
#include "transport/consumer.hpp"
#include "transport/cron.hpp"
#include "transport/daemon.hpp"
#include "transport/frame.hpp"

namespace tacc::transport {
namespace {

constexpr util::SimTime kMidnight = 1451606400LL * util::kSecond;  // 2016-01-01

simhw::Cluster small_cluster(int n = 2) {
  simhw::ClusterConfig cc;
  cc.num_nodes = n;
  cc.topology = simhw::Topology{1, 2, false};
  cc.phi_fraction = 0.0;
  return simhw::Cluster(cc);
}

TEST(Daemon, PublishesParseableChunks) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("q", "stats.*");
  StatsDaemon daemon(cluster.node(0), broker, {},
                     [] { return std::vector<long>{77}; });
  EXPECT_TRUE(daemon.on_time(kMidnight));
  const auto msg = broker.consume("q", std::chrono::milliseconds(100));
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->routing_key, "stats.c400-001");
  // A frame of one: the record's identity (the same as the delivery's),
  // then the self-describing chunk, its header marked off by header_len.
  const auto frame = AggFrame::parse(msg->body);
  EXPECT_EQ(frame.producer, "c400-001");
  EXPECT_EQ(frame.seqs, std::vector<std::uint64_t>{1});
  EXPECT_EQ(frame.delays, std::vector<util::SimTime>{0});
  EXPECT_EQ(msg->producer, frame.producer);
  EXPECT_EQ(msg->seq, 1u);
  collect::HostLog header;
  EXPECT_EQ(frame.header_len, header.parse_header(frame.payload));
  const auto chunk = collect::HostLog::parse(frame.payload);
  EXPECT_EQ(chunk.hostname, "c400-001");
  ASSERT_EQ(chunk.records.size(), 1u);
  EXPECT_EQ(chunk.records[0].jobids, std::vector<long>{77});
}

TEST(Daemon, RespectsInterval) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("q", "#");
  DaemonConfig dc;
  dc.interval = 10 * util::kMinute;
  StatsDaemon daemon(cluster.node(0), broker, dc,
                     [] { return std::vector<long>{}; });
  EXPECT_TRUE(daemon.on_time(kMidnight));
  EXPECT_FALSE(daemon.on_time(kMidnight + util::kMinute));   // too soon
  EXPECT_FALSE(daemon.on_time(kMidnight + 9 * util::kMinute));
  EXPECT_TRUE(daemon.on_time(kMidnight + 10 * util::kMinute));
  EXPECT_EQ(daemon.stats().collections, 2u);
}

TEST(Daemon, CollectNowBypassesInterval) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("q", "#");
  StatsDaemon daemon(cluster.node(0), broker, {},
                     [] { return std::vector<long>{}; });
  EXPECT_TRUE(daemon.on_time(kMidnight));
  EXPECT_TRUE(daemon.collect_now(kMidnight + util::kSecond, "begin"));
  EXPECT_EQ(daemon.stats().collections, 2u);
}

TEST(Daemon, FailedNodeCountsFailure) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("q", "#");
  StatsDaemon daemon(cluster.node(0), broker, {},
                     [] { return std::vector<long>{}; });
  cluster.fail_node(0);
  EXPECT_FALSE(daemon.on_time(kMidnight));
  EXPECT_EQ(daemon.stats().publish_failures, 1u);
  EXPECT_EQ(daemon.stats().collections, 0u);
}

TEST(Consumer, ArchivesChunksInRealTime) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("raw", "stats.*");
  RawArchive archive;
  int callbacks = 0;
  Consumer consumer(broker, archive, "raw",
                    [&](const std::string&, const collect::HostLog&) {
                      ++callbacks;
                    });
  StatsDaemon daemon(cluster.node(0), broker, {},
                     [] { return std::vector<long>{}; });
  for (int i = 0; i < 5; ++i) {
    daemon.collect_now(kMidnight + i * util::kMinute, {});
  }
  consumer.drain();
  EXPECT_EQ(consumer.consumed(), 5u);
  EXPECT_EQ(callbacks, 5);
  EXPECT_EQ(archive.total_records(), 5u);
  const auto log = archive.log("c400-001");
  EXPECT_EQ(log.records.size(), 5u);
  EXPECT_FALSE(log.schemas.empty());
  // Real-time mode: ingest latency is zero in simulated time.
  EXPECT_DOUBLE_EQ(archive.latency().max(), 0.0);
  consumer.stop();
}

TEST(Consumer, MalformedChunkCountedNotFatal) {
  auto cluster = small_cluster(1);
  Broker broker;
  broker.bind("raw", "#");
  RawArchive archive;
  Consumer consumer(broker, archive, "raw");
  // Neither body is a frame: the first is no stats chunk at all, the
  // second a bare chunk header.
  broker.publish("k", "this is not a stats chunk");
  broker.publish("k", "$tacc_stats 2.1\n$hostname h\n$arch x\n");
  StatsDaemon daemon(cluster.node(0), broker, {},
                     [] { return std::vector<long>{}; });
  daemon.collect_now(kMidnight, {});
  consumer.drain();
  EXPECT_EQ(consumer.parse_errors(), 2u);
  EXPECT_EQ(consumer.consumed(), 1u);  // the daemon's frame
  EXPECT_EQ(archive.total_records(), 1u);
  consumer.stop();
}

TEST(Cron, CollectsAtInterval) {
  auto cluster = small_cluster(2);
  RawArchive archive;
  CronConfig cc;
  cc.interval = 10 * util::kMinute;
  CronMode cron(cluster, archive, cc,
                [](std::size_t) { return std::vector<long>{}; });
  for (int i = 0; i <= 6; ++i) {
    cron.on_time(kMidnight + i * 10 * util::kMinute);
  }
  EXPECT_EQ(cron.stats().collected_records, 2u * 7u);
  // Nothing staged yet: data is node-local until the daily rsync.
  EXPECT_EQ(archive.total_records(), 0u);
}

TEST(Cron, StagesOncePerDayWithLatency) {
  auto cluster = small_cluster(1);
  RawArchive archive;
  CronConfig cc;
  cc.interval = util::kHour;
  CronMode cron(cluster, archive, cc,
                [](std::size_t) { return std::vector<long>{}; });
  // Run a full day plus the staging window of the next morning.
  for (util::SimTime t = kMidnight; t <= kMidnight + 30 * util::kHour;
       t += util::kHour) {
    cron.on_time(t);
  }
  // Yesterday's records are in the archive now.
  EXPECT_GE(archive.total_records(), 24u);
  EXPECT_GT(cron.stats().staged_records, 0u);
  // Latency is hours: records waited for rotation + staging.
  EXPECT_GT(archive.latency().mean(), 3600.0);
  EXPECT_LT(archive.latency().mean(), 30.0 * 3600.0);
}

TEST(Cron, NodeFailureLosesUnstagedData) {
  auto cluster = small_cluster(1);
  RawArchive archive;
  CronConfig cc;
  cc.interval = 10 * util::kMinute;
  CronMode cron(cluster, archive, cc,
                [](std::size_t) { return std::vector<long>{}; });
  for (int i = 0; i < 12; ++i) {
    cron.on_time(kMidnight + i * 10 * util::kMinute);
  }
  const auto collected = cron.stats().collected_records;
  EXPECT_EQ(collected, 12u);
  cluster.fail_node(0);
  cron.node_failed(0);
  EXPECT_EQ(cron.stats().lost_records, collected);  // all unstaged -> lost
  // Continued operation skips the dead node.
  cron.on_time(kMidnight + 3 * util::kHour);
  EXPECT_GT(cron.stats().skipped_nodes, 0u);
  EXPECT_EQ(archive.total_records(), 0u);
}

TEST(Cron, BeginEndMarksViaCollectNow) {
  auto cluster = small_cluster(1);
  RawArchive archive;
  CronMode cron(cluster, archive, {},
                [](std::size_t) { return std::vector<long>{42}; });
  EXPECT_TRUE(cron.collect_now(0, kMidnight, "begin"));
  cluster.fail_node(0);
  EXPECT_FALSE(cron.collect_now(0, kMidnight + util::kSecond, "end"));
}

TEST(Archive, HeaderFirstWriteWins) {
  RawArchive archive;
  archive.add_header("h1", "hsw", {});
  archive.add_header("h1", "snb", {});
  EXPECT_EQ(archive.log("h1").arch, "hsw");
  EXPECT_EQ(archive.hosts(), std::vector<std::string>{"h1"});
  EXPECT_TRUE(archive.log("unknown").records.empty());
}

}  // namespace
}  // namespace tacc::transport

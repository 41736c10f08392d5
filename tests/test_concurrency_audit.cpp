// Concurrency audit for the modules PR 1 never exercised under
// ThreadSanitizer: the broker (multi-producer / multi-consumer with
// requeue and shutdown), the online analyzer (consumer-thread writes
// racing administrator reads), the raw archive (daemon-mode appends racing
// portal reads), and the logger. Run these under -DTACC_TSAN=ON (the CI
// tsan job does) — a data race in any of them silently corrupts the
// always-on monitoring plane the paper's workflows depend on.
//
// These tests pin the *dynamic* side of the discipline that the
// TACC_GUARDED_BY annotations (checked statically under
// -DTACC_THREAD_SAFETY=ON) declare; see docs/STATIC_ANALYSIS.md.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "collect/registry.hpp"
#include "core/online.hpp"
#include "pipeline/jobmap.hpp"
#include "simhw/node.hpp"
#include "transport/archive.hpp"
#include "transport/broker.hpp"
#include "util/log.hpp"
#include "workload/jobs.hpp"

namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Broker: N publishers x M consumers, with every delivery acked and a
// fraction deliberately requeued once (the at-least-once redelivery path),
// while another thread polls depth()/stats(). Every published message must
// come out exactly once acked, and the counters must balance.
TEST(ConcurrencyAudit, BrokerMultiProducerMultiConsumer) {
  tacc::transport::Broker broker;
  broker.declare_queue("q");
  broker.bind("q", "stats.*");

  constexpr int kPublishers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerPublisher = 250;
  constexpr int kTotal = kPublishers * kPerPublisher;

  std::atomic<int> acked{0};
  std::atomic<int> requeued{0};

  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&broker, &acked, &requeued] {
      while (true) {
        auto msg = broker.consume("q", 50ms);
        if (!msg) {
          if (broker.is_shut_down()) return;
          continue;
        }
        // Requeue every 7th delivery once to exercise redelivery; the
        // redelivered copy keeps its tag, so parity identifies it.
        if (msg->delivery_tag % 7 == 0 &&
            requeued.fetch_add(1) < kTotal / 7) {
          broker.requeue("q", msg->delivery_tag);
          continue;
        }
        broker.ack("q", msg->delivery_tag);
        if (acked.fetch_add(1) + 1 == kTotal) {
          broker.shutdown();
          return;
        }
      }
    });
  }

  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&broker, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        const std::size_t routed = broker.publish(
            "stats.host" + std::to_string(p), "payload " + std::to_string(i));
        ASSERT_EQ(routed, 1u);
      }
    });
  }

  // Observer thread: depth()/stats() must be safely readable mid-flight.
  std::thread observer([&broker] {
    while (!broker.is_shut_down()) {
      (void)broker.depth("q");
      (void)broker.stats();
      std::this_thread::sleep_for(1ms);
    }
  });

  for (auto& t : publishers) t.join();
  for (auto& t : consumers) t.join();
  observer.join();

  EXPECT_EQ(acked.load(), kTotal);
  const auto stats = broker.stats();
  EXPECT_EQ(stats.published, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.acked, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.delivered, stats.acked + stats.redelivered);
  EXPECT_EQ(broker.depth("q"), 0u);
}

// Unroutable publishes racing bind() of new queues: bindings_ is mutated
// while publishers scan it.
TEST(ConcurrencyAudit, BrokerBindDuringPublish) {
  tacc::transport::Broker broker;
  broker.declare_queue("base");
  broker.bind("base", "#");

  std::atomic<bool> stop{false};
  std::thread binder([&broker, &stop] {
    for (int i = 0; i < 50 && !stop.load(); ++i) {
      const std::string q = "extra" + std::to_string(i);
      broker.declare_queue(q);
      broker.bind(q, "never.matches");
      std::this_thread::sleep_for(1ms);
    }
  });

  constexpr int kMsgs = 500;
  std::thread publisher([&broker] {
    for (int i = 0; i < kMsgs; ++i) {
      ASSERT_GE(broker.publish("k" + std::to_string(i % 13), "x"), 1u);
    }
  });

  publisher.join();
  stop.store(true);
  binder.join();
  EXPECT_EQ(broker.depth("base"), static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(broker.stats().unroutable, 0u);
}

// ---------------------------------------------------------------------------
// OnlineAnalyzer: per-host chunks arriving from several "consumer" threads
// while the administrator thread polls alerts()/suspend_candidates()/
// records_analyzed(). A record pair crossing the metadata-storm threshold
// must fire exactly one alert per pair regardless of interleaving.
TEST(ConcurrencyAudit, OnlineAnalyzerConcurrentChunks) {
  tacc::simhw::NodeConfig nc;
  tacc::simhw::Node node(nc);
  tacc::collect::BuildOptions build;
  build.with_lustre = true;
  tacc::collect::HostSampler sampler(node, build);

  // One chunk per host, built serially up front (the sampler/node pair is
  // not a shared-use structure): two records whose mdc request delta is an
  // obvious storm (rate >> FlagThresholds::metadata_rate).
  const auto make_chunk = [&sampler](const std::string& host) {
    tacc::collect::HostLog log = sampler.make_log();
    log.hostname = host;
    auto r1 = sampler.sample(1000 * tacc::util::kSecond, {101}, "");
    auto r2 = sampler.sample(1010 * tacc::util::kSecond, {101}, "");
    for (const auto& s : log.schemas) {
      if (s.type() != "mdc") continue;
      const auto ri = s.index_of("reqs");
      EXPECT_TRUE(ri.has_value()) << "mdc schema lost its reqs entry";
      if (!ri) continue;
      for (std::size_t b = 0; b < r2.blocks.size(); ++b) {
        if (r2.blocks[b].type != "mdc") continue;
        r2.blocks[b].values[*ri] =
            r1.blocks[b].values[*ri] + 1000000000ULL;
      }
    }
    log.records.push_back(std::move(r1));
    log.records.push_back(std::move(r2));
    return log;
  };

  tacc::core::OnlineAnalyzer analyzer;
  constexpr int kThreads = 4;
  constexpr int kHostsPerThread = 8;

  std::vector<std::vector<std::pair<std::string, tacc::collect::HostLog>>>
      per_thread(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int h = 0; h < kHostsPerThread; ++h) {
      const std::string host =
          "c4" + std::to_string(t) + "-" + std::to_string(h);
      per_thread[t].emplace_back(host, make_chunk(host));
    }
  }

  std::atomic<bool> stop{false};
  std::thread reader([&analyzer, &stop] {
    while (!stop.load()) {
      (void)analyzer.alerts();
      (void)analyzer.suspend_candidates();
      (void)analyzer.records_analyzed();
      std::this_thread::sleep_for(1ms);
    }
  });

  std::vector<std::thread> feeders;
  feeders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    feeders.emplace_back([&analyzer, &per_thread, t] {
      for (const auto& [host, chunk] : per_thread[t]) {
        analyzer.on_chunk(host, chunk);
      }
    });
  }
  for (auto& t : feeders) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(analyzer.records_analyzed(),
            static_cast<std::size_t>(kThreads * kHostsPerThread * 2));
  // Every host's second record crossed the threshold exactly once (other
  // rules may or may not fire on the idle-node baseline; count only ours).
  std::size_t storms = 0;
  for (const auto& alert : analyzer.alerts()) {
    storms += alert.rule == "metadata_storm" ? 1 : 0;
  }
  EXPECT_EQ(storms, static_cast<std::size_t>(kThreads * kHostsPerThread));
  EXPECT_EQ(analyzer.suspend_candidates(), std::set<long>{101});
}

// ---------------------------------------------------------------------------
// RawArchive: daemon-style appends from several threads racing log()/
// hosts()/total_records()/latency() snapshot reads and in-place job
// extraction (pipeline::extract_job reads each host's log under the
// archive lock). Even records belong to job kJob, odd ones to another.
TEST(ConcurrencyAudit, RawArchiveAppendVsSnapshot) {
  tacc::transport::RawArchive archive;
  constexpr int kWriters = 4;
  constexpr int kRecords = 200;
  constexpr long kJob = 42;

  tacc::workload::AccountingRecord acct;
  acct.jobid = kJob;
  for (int w = 0; w < kWriters; ++w) {
    acct.hostnames.push_back("n" + std::to_string(w));
  }

  std::atomic<bool> stop{false};
  std::thread reader([&archive, &stop, &acct] {
    while (!stop.load()) {
      for (const auto& host : archive.hosts()) {
        const auto log = archive.log(host);
        // Snapshot consistency: parallel arrays stay in lockstep.
        ASSERT_LE(log.records.size(), static_cast<std::size_t>(kRecords));
      }
      const auto job = tacc::pipeline::extract_job(archive, acct);
      for (const auto& series : job.hosts) {
        ASSERT_LE(series.records.size(),
                  static_cast<std::size_t>(kRecords / 2));
        for (std::size_t i = 0; i < series.records.size(); ++i) {
          ASSERT_EQ(series.records[i].jobids, std::vector<long>{kJob});
          if (i > 0) {
            ASSERT_LE(series.records[i - 1].time, series.records[i].time);
          }
        }
      }
      (void)archive.total_records();
      (void)archive.latency();
      std::this_thread::sleep_for(1ms);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&archive, w] {
      const std::string host = "n" + std::to_string(w);
      archive.add_header(host, "hsw", {});
      for (int i = 0; i < kRecords; ++i) {
        tacc::collect::Record rec;
        rec.time = static_cast<tacc::util::SimTime>(i) * tacc::util::kSecond;
        rec.jobids = {i % 2 == 0 ? kJob : kJob + 1};
        archive.append(host, rec, rec.time + tacc::util::kSecond);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(archive.total_records(),
            static_cast<std::size_t>(kWriters * kRecords));
  EXPECT_DOUBLE_EQ(archive.latency().mean(), 1.0);
  const auto job = tacc::pipeline::extract_job(archive, acct);
  ASSERT_EQ(job.hosts.size(), static_cast<std::size_t>(kWriters));
  for (const auto& series : job.hosts) {
    EXPECT_EQ(series.records.size(), static_cast<std::size_t>(kRecords / 2));
  }
}

// ---------------------------------------------------------------------------
// Logger: concurrent log_line + level flips must not race (whole lines are
// serialized onto stderr under an annotated mutex).
TEST(ConcurrencyAudit, LogLineConcurrent) {
  const auto prev = tacc::util::log_level();
  tacc::util::set_log_level(tacc::util::LogLevel::Off);
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 200; ++i) {
        tacc::util::log_line(tacc::util::LogLevel::Debug, "audit",
                             "t" + std::to_string(t));
        if (i % 50 == 0) {
          tacc::util::set_log_level(tacc::util::LogLevel::Off);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  tacc::util::set_log_level(prev);
}

}  // namespace

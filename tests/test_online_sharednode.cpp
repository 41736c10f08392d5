// Online analyzer (section VI-B) and shared-node process tracking
// (section VI-C).
#include <gtest/gtest.h>

#include <bit>

#include "core/online.hpp"
#include "core/sharednode.hpp"
#include "pipeline/flags.hpp"

namespace tacc::core {
namespace {

constexpr util::SimTime kT0 = 1451606400LL * util::kSecond;

collect::HostLog chunk_with(std::uint64_t mdc_reqs, std::uint64_t eth_rx,
                            std::uint64_t mem_used, util::SimTime t,
                            std::vector<long> jobs, int mdc_width = 64) {
  collect::HostLog log;
  log.hostname = "c400-001";
  log.arch = "hsw";
  log.schemas = {
      collect::Schema("mdc", {{"reqs", true, mdc_width, "reqs", 1.0},
                              {"wait", true, 64, "usec", 1.0}}),
      collect::Schema("net", {{"rx_bytes", true, 64, "bytes", 1.0},
                              {"rx_packets", true, 64, "packets", 1.0},
                              {"tx_bytes", true, 64, "bytes", 1.0},
                              {"tx_packets", true, 64, "packets", 1.0}}),
      collect::Schema("mem", {{"MemTotal", false, 64, "KB", 1.0},
                              {"MemFree", false, 64, "KB", 1.0},
                              {"Cached", false, 64, "KB", 1.0},
                              {"MemUsed", false, 64, "KB", 1.0}}),
  };
  collect::Record rec;
  rec.time = t;
  rec.jobids = std::move(jobs);
  rec.blocks = {
      {"mdc", "t", {mdc_reqs, mdc_reqs * 50}},
      {"net", "eth0", {eth_rx, eth_rx / 1500, 0, 0}},
      {"mem", "", {32000000, 0, 0, mem_used}},
  };
  log.records.push_back(std::move(rec));
  return log;
}

TEST(Online, NoAlertOnFirstRecord) {
  OnlineAnalyzer analyzer;
  analyzer.on_chunk("c400-001", chunk_with(1000000, 0, 100, kT0, {1}));
  EXPECT_TRUE(analyzer.alerts().empty());
  EXPECT_EQ(analyzer.records_analyzed(), 1u);
}

TEST(Online, MetadataStormFiresAndSuspends) {
  OnlineAnalyzer analyzer;
  analyzer.on_chunk("c400-001", chunk_with(0, 0, 100, kT0, {42}));
  // 30M requests in 600 s = 50k/s > FlagThresholds::metadata_rate (10k/s).
  analyzer.on_chunk("c400-001",
                    chunk_with(30000000, 0, 100,
                               kT0 + 600 * util::kSecond, {42}));
  const auto alerts = analyzer.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "metadata_storm");
  EXPECT_NEAR(alerts[0].value, 50000.0, 1.0);
  EXPECT_EQ(alerts[0].hostname, "c400-001");
  EXPECT_EQ(alerts[0].jobids, std::vector<long>{42});
  EXPECT_EQ(analyzer.suspend_candidates(), std::set<long>{42});
}

// A counter wrap between two records, through both paths: Table I's
// MetaDataRate and the online alert take the same wrap-corrected delta.
TEST(Online, WrappedCounterAlertEqualsTableI) {
  for (const int width : {32, 48, 64}) {
    SCOPED_TRACE(width);
    const std::uint64_t max = width == 64 ? ~0ULL : (1ULL << width) - 1;
    const std::uint64_t before = max - 295;  // 296 below the wrap
    const std::uint64_t after = (before + 30000000) & max;
    const auto first = chunk_with(before, 0, 100, kT0, {42}, width);
    const auto second = chunk_with(after, 0, 100,
                                   kT0 + 600 * util::kSecond, {42}, width);
    OnlineAnalyzer analyzer;
    analyzer.on_chunk(first.hostname, first);
    analyzer.on_chunk(second.hostname, second);

    pipeline::JobData job;
    job.acct.jobid = 42;
    job.hosts.push_back({first.hostname, first.arch, first.schemas,
                         {first.records[0], second.records[0]}});
    const auto m = pipeline::compute_metrics(job);
    EXPECT_EQ(m.MetaDataRate, 50000.0);
    EXPECT_EQ(pipeline::flag_names(pipeline::evaluate_flags(job.acct, m)),
              "high_metadata_rate");
    const auto alerts = analyzer.alerts();
    ASSERT_EQ(alerts.size(), 1u);
    EXPECT_EQ(alerts[0].rule, "metadata_storm");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(alerts[0].value),
              std::bit_cast<std::uint64_t>(m.MetaDataRate));
  }
}

TEST(Online, QuietStreamStaysQuiet) {
  OnlineAnalyzer analyzer;
  for (int i = 0; i < 10; ++i) {
    analyzer.on_chunk("c400-001",
                      chunk_with(i * 100, i * 1000, 100,
                                 kT0 + i * 600 * util::kSecond, {1}));
  }
  EXPECT_TRUE(analyzer.alerts().empty());
  EXPECT_TRUE(analyzer.suspend_candidates().empty());
}

TEST(Online, GigeTrafficRule) {
  OnlineAnalyzer analyzer;
  analyzer.on_chunk("c400-001", chunk_with(0, 0, 100, kT0, {7}));
  analyzer.on_chunk(
      "c400-001",
      chunk_with(0, 6000000000ULL, 100, kT0 + 600 * util::kSecond, {7}));
  const auto alerts = analyzer.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "gige_traffic");
  // GigE traffic does not mark jobs for suspension.
  EXPECT_TRUE(analyzer.suspend_candidates().empty());
}

TEST(Online, MemoryPressureRule) {
  OnlineAnalyzer analyzer;
  analyzer.on_chunk("c400-001", chunk_with(0, 0, 100, kT0, {7}));
  analyzer.on_chunk("c400-001",
                    chunk_with(0, 0, 31000000,
                               kT0 + 600 * util::kSecond, {7}));
  const auto alerts = analyzer.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].rule, "memory_pressure");
  EXPECT_GT(alerts[0].value, 0.95);
}

TEST(Online, PerHostStateIsolated) {
  OnlineAnalyzer analyzer;
  analyzer.on_chunk("h1", chunk_with(0, 0, 100, kT0, {1}));
  // h2's first record: no baseline, no alert even with a huge count.
  analyzer.on_chunk("h2", chunk_with(50000000, 0, 100, kT0, {2}));
  EXPECT_TRUE(analyzer.alerts().empty());
}

// ---------------------------------------------------------------------------

TEST(SharedNode, IdleSignalCollectsImmediately) {
  std::vector<std::pair<util::SimTime, std::string>> calls;
  SharedNodeTracker tracker(
      [&](util::SimTime t, const std::string& m) { calls.emplace_back(t, m); });
  tracker.process_started(kT0, 100, 1);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], std::make_pair(kT0, std::string("procstart")));
  EXPECT_EQ(tracker.stats().collections_triggered, 1u);
  EXPECT_EQ(tracker.busy_until(), kT0 + util::from_seconds(0.09));
}

TEST(SharedNode, TwoSimultaneousSignalsBothHandled) {
  std::vector<std::pair<util::SimTime, std::string>> calls;
  SharedNodeTracker tracker(
      [&](util::SimTime t, const std::string& m) { calls.emplace_back(t, m); });
  tracker.process_started(kT0, 100, 1);
  tracker.process_started(kT0, 101, 2);  // same instant: queued
  ASSERT_EQ(calls.size(), 2u);
  // The queued collection runs right after the first finishes.
  EXPECT_EQ(calls[1].first, kT0 + util::from_seconds(0.09));
  EXPECT_EQ(tracker.stats().signals_coalesced, 1u);
  EXPECT_EQ(tracker.stats().signals_missed, 0u);
}

TEST(SharedNode, ThirdSimultaneousSignalMissed) {
  int collections = 0;
  SharedNodeTracker tracker(
      [&](util::SimTime, const std::string&) { ++collections; });
  tracker.process_started(kT0, 100, 1);
  tracker.process_started(kT0, 101, 2);
  tracker.process_started(kT0 + util::from_seconds(0.01), 102, 3);
  EXPECT_EQ(collections, 2);
  EXPECT_EQ(tracker.stats().signals_missed, 1u);
  // The missed process is still in the job list for the next interval
  // collection.
  EXPECT_EQ(tracker.current_jobs(), (std::vector<long>{1, 2, 3}));
}

TEST(SharedNode, QueueSlotFreesWhenQueuedCollectionStarts) {
  int collections = 0;
  SharedNodeTracker tracker(
      [&](util::SimTime, const std::string&) { ++collections; });
  tracker.process_started(kT0, 100, 1);                             // runs
  tracker.process_started(kT0 + util::from_seconds(0.01), 101, 2);  // queued
  // At +0.10 the queued collection has started: the slot is free again.
  tracker.process_started(kT0 + util::from_seconds(0.10), 102, 3);
  EXPECT_EQ(collections, 3);
  EXPECT_EQ(tracker.stats().signals_missed, 0u);
  EXPECT_EQ(tracker.stats().signals_coalesced, 2u);
}

TEST(SharedNode, EveryProcessGetsTwoCollections) {
  // Well-spaced processes: every start and stop triggers a collection.
  int collections = 0;
  SharedNodeTracker tracker(
      [&](util::SimTime, const std::string&) { ++collections; });
  for (int p = 0; p < 5; ++p) {
    const util::SimTime t = kT0 + p * util::kSecond;
    tracker.process_started(t, 100 + p, p);
    tracker.process_ended(t + util::kSecond / 2, 100 + p, p);
  }
  EXPECT_EQ(collections, 10);
  EXPECT_EQ(tracker.stats().signals_received, 10u);
  EXPECT_TRUE(tracker.current_jobs().empty());
}

TEST(SharedNode, JobListTracksLiveProcesses) {
  SharedNodeTracker tracker([](util::SimTime, const std::string&) {});
  tracker.process_started(kT0, 1, 10);
  tracker.process_started(kT0 + util::kSecond, 2, 10);  // same job, 2 procs
  tracker.process_started(kT0 + 2 * util::kSecond, 3, 20);
  EXPECT_EQ(tracker.current_jobs(), (std::vector<long>{10, 20}));
  tracker.process_ended(kT0 + 3 * util::kSecond, 1, 10);
  EXPECT_EQ(tracker.current_jobs(), (std::vector<long>{10, 20}));
  tracker.process_ended(kT0 + 4 * util::kSecond, 2, 10);
  EXPECT_EQ(tracker.current_jobs(), (std::vector<long>{20}));
}

TEST(SharedNode, MarksDistinguishStartStop) {
  std::vector<std::string> marks;
  SharedNodeTracker tracker(
      [&](util::SimTime, const std::string& m) { marks.push_back(m); });
  tracker.process_started(kT0, 1, 1);
  tracker.process_ended(kT0 + util::kSecond, 1, 1);
  EXPECT_EQ(marks, (std::vector<std::string>{"procstart", "procstop"}));
}

}  // namespace
}  // namespace tacc::core

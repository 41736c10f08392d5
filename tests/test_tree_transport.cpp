// Hierarchical aggregation transport: frame wire format, rendezvous shard
// assignment, watermark backpressure, tree construction, in-flight
// pre-reduction (coalescing), and the headline invariant — the archive is
// byte-identical across topology shapes (flat vs 2-tier vs 3-tier) under
// the same seed and fault schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "pipeline/ingest.hpp"
#include "transport/aggregator.hpp"
#include "transport/archive.hpp"
#include "transport/broker.hpp"
#include "transport/consumer.hpp"
#include "transport/frame.hpp"
#include "transport/topology.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace tacc {
namespace {

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;  // 2016-01-04
constexpr const char* kQueue = "raw_stats";

/// A small synthetic host log: one 4-counter schema, hand-built records.
collect::HostLog make_synth_log(const std::string& host) {
  collect::HostLog log;
  log.hostname = host;
  log.arch = "synth";
  std::vector<collect::SchemaEntry> entries;
  for (int k = 0; k < 4; ++k) {
    entries.push_back({"ctr" + std::to_string(k), true, 64, "", 1.0});
  }
  log.schemas.emplace_back("dev", std::move(entries));
  return log;
}

collect::Record make_synth_record(util::SimTime t, std::uint64_t base) {
  collect::Record rec;
  rec.time = t;
  rec.jobids = {4242};
  collect::RawBlock b;
  b.type = "dev";
  b.device = "0";
  for (std::uint64_t k = 0; k < 4; ++k) b.values.push_back(base + k);
  rec.blocks.push_back(std::move(b));
  return rec;
}

/// The daemon's message: one record as a frame of one under (host, seq).
std::string frame_of_one(const std::string& host, std::uint64_t seq,
                         const std::string& header,
                         const collect::Record& rec) {
  return transport::AggFrame{host, {seq}, {0}, header.size(),
                             header + collect::HostLog::serialize_record(rec)}
      .serialize();
}

TEST(AggFrame, SerializeParseRoundTrip) {
  const auto log = make_synth_log("c401-101");
  const auto rec1 = make_synth_record(kStart, 100);
  const auto rec2 = make_synth_record(kStart + util::kMinute, 200);

  transport::AggFrame f;
  f.producer = "c401-101";
  f.seqs = {7, 8};
  f.delays = {0, 5 * util::kSecond};
  const std::string header = log.serialize_header();
  f.header_len = header.size();
  f.payload = header + collect::HostLog::serialize_record(rec1) +
              collect::HostLog::serialize_record(rec2);

  const auto parsed = transport::AggFrame::parse(f.serialize());
  EXPECT_EQ(parsed.producer, f.producer);
  EXPECT_EQ(parsed.seqs, f.seqs);
  EXPECT_EQ(parsed.delays, f.delays);
  EXPECT_EQ(parsed.header_len, f.header_len);
  EXPECT_EQ(parsed.payload, f.payload);

  // The payload is a well-formed host log carrying exactly the records.
  const auto chunk = collect::HostLog::parse(parsed.payload);
  ASSERT_EQ(chunk.records.size(), 2u);
  EXPECT_EQ(chunk.records[0], rec1);
  EXPECT_EQ(chunk.records[1], rec2);
}

TEST(AggFrame, PlainChunkIsNotAFrame) {
  // Every reader takes frames only: a plain chunk is refused even under a
  // (producer, seq) delivery identity, and so is an empty body.
  auto log = make_synth_log("c401-101");
  log.records.push_back(make_synth_record(kStart, 1));
  transport::Message msg;
  msg.producer = "c401-101";
  msg.seq = 1;
  for (const std::string& body : {log.serialize(), std::string()}) {
    msg.body = body;
    EXPECT_THROW(transport::AggFrame::parse(msg.body), std::invalid_argument);
    EXPECT_THROW(transport::AggFrame::of_message(msg), std::invalid_argument);
    EXPECT_THROW(transport::AggFrame::message_seqs(msg),
                 std::invalid_argument);
  }
}

TEST(AggFrame, MalformedInputThrows) {
  transport::AggFrame f;
  f.producer = "h";
  f.seqs = {1};
  f.delays = {0};
  f.payload = make_synth_log("h").serialize_header();
  f.header_len = f.payload.size();  // the whole payload is header bytes
  const std::string wire = f.serialize();
  EXPECT_NO_THROW(transport::AggFrame::parse(wire));
  // Truncation into the declared header prefix is detectable.
  EXPECT_THROW(transport::AggFrame::parse(wire.substr(0, wire.size() - 1)),
               std::invalid_argument);
  // Bad magic.
  EXPECT_THROW(transport::AggFrame::parse("$tacc_agg 9 h 1 0\n"),
               std::invalid_argument);
  // seqs/delays count mismatch.
  transport::AggFrame g = f;
  g.delays = {0, 1};
  EXPECT_THROW(transport::AggFrame::parse(g.serialize()),
               std::invalid_argument);
  // A count its $seqs line cannot hold is refused before it sizes a
  // vector (reserving 2^62 seqs would throw std::length_error).
  EXPECT_THROW(transport::AggFrame::parse(
                   "$tacc_agg 1 h 4611686018427387904 0\n$seqs 1\n"
                   "$delays 0\n"),
               std::invalid_argument);
}

TEST(AggFrame, HeaderLenMustEndTheHeader) {
  const std::string header = make_synth_log("h").serialize_header();
  const std::string record =
      collect::HostLog::serialize_record(make_synth_record(kStart, 1));
  transport::AggFrame f{"h", {1}, {0}, header.size(), header + record};
  EXPECT_NO_THROW(transport::AggFrame::parse(f.serialize()));
  collect::HostLog probe;
  EXPECT_EQ(f.header_len, probe.parse_header(f.payload));

  const std::size_t schema_line = header.find("\n!") + 1;
  const std::size_t record_line = header.size() + record.find('\n') + 1;
  for (const std::size_t bad : {
           std::size_t{0},      // no header at all
           std::size_t{5},      // inside the format line
           schema_line,         // ends a header line, but a schema line follows
           schema_line + 3,     // cuts the schema line
           header.size() - 1,   // stops short of the last '\n'
           header.size() + 1,   // inside the record's first line
           record_line,         // covers the record's first line
           header.size() + record.size(),  // the whole payload
       }) {
    f.header_len = bad;
    EXPECT_THROW(transport::AggFrame::parse(f.serialize()),
                 std::invalid_argument)
        << "header_len " << bad;
  }

  // A header that does not open with the format line.
  const std::size_t format_end = header.find('\n') + 1;
  f.payload = header.substr(format_end) + record;
  f.header_len = header.size() - format_end;
  EXPECT_THROW(transport::AggFrame::parse(f.serialize()),
               std::invalid_argument);
  // A frame of header bytes only is well formed.
  f.payload = header;
  f.header_len = header.size();
  EXPECT_NO_THROW(transport::AggFrame::parse(f.serialize()));
}

TEST(AggFrame, MessageSeqsIsFrameAware) {
  const std::string header = make_synth_log("c2").serialize_header();
  std::vector<collect::Record> recs;
  std::string records;
  for (std::uint64_t i = 0; i < 3; ++i) {
    recs.push_back(make_synth_record(kStart + i * util::kMinute, i));
    records += collect::HostLog::serialize_record(recs.back());
  }
  // message_seqs reads the frame's identities, not the delivery's.
  transport::Message one;
  one.producer = "c2";
  one.seq = 9;
  one.body = frame_of_one("c2", 7, header, recs[0]);
  const auto os = transport::AggFrame::message_seqs(one);
  ASSERT_EQ(os.size(), 1u);
  EXPECT_EQ(os[0], (std::pair<std::string, std::uint64_t>{"c2", 7}));

  transport::AggFrame f;
  f.producer = "c2";
  f.seqs = {3, 4, 5};
  f.delays = {0, 0, 0};
  f.header_len = header.size();
  f.payload = header + records;
  transport::Message framed;
  framed.producer = "agg-1-0";
  framed.seq = 1;
  framed.body = f.serialize();
  const auto fs = transport::AggFrame::message_seqs(framed);
  ASSERT_EQ(fs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fs[i].first, "c2");
    EXPECT_EQ(fs[i].second, f.seqs[i]);
  }
}

TEST(Rendezvous, StableBalancedAndMinimallyRemapped) {
  constexpr std::size_t kHosts = 4096;
  constexpr std::size_t kN = 8;
  std::vector<std::size_t> count(kN, 0);
  std::size_t moved = 0;
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::string host = "node-" + std::to_string(h);
    const std::size_t a = transport::AggregationTree::rendezvous_pick(host, kN);
    // Pure function: same inputs, same shard.
    EXPECT_EQ(a, transport::AggregationTree::rendezvous_pick(host, kN));
    ASSERT_LT(a, kN);
    ++count[a];
    if (transport::AggregationTree::rendezvous_pick(host, kN + 1) != a) {
      ++moved;
    }
  }
  // Every shard owns a meaningful share (~512 each; allow wide slack).
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_GT(count[i], kHosts / (4 * kN)) << "shard " << i << " starved";
  }
  // Growing N -> N+1 remaps ~1/(N+1) of the hosts, not a global reshuffle.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(static_cast<double>(moved) / kHosts, 0.25);
}

TEST(BrokerWatermarks, PauseAndResumeCountedOncePerCrossing) {
  transport::Broker broker;
  broker.declare_queue("q");
  broker.bind("q", "stats.*");
  broker.set_watermarks("q", 4, 2);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(broker.publish("stats.h", "m" + std::to_string(i)), 1u);
    EXPECT_FALSE(broker.queue_paused("q"));
  }
  EXPECT_EQ(broker.publish("stats.h", "m3"), 1u);  // depth hits high = 4
  EXPECT_TRUE(broker.queue_paused("q"));
  EXPECT_TRUE(broker.publish_paused("stats.h"));
  EXPECT_FALSE(broker.publish_paused("other.h"));  // no binding, no pause
  // Watermarks are advisory: a publish while paused still lands.
  EXPECT_EQ(broker.publish("stats.h", "m4"), 1u);
  EXPECT_EQ(broker.depth("q"), 5u);

  using namespace std::chrono_literals;
  std::vector<std::uint64_t> tags;
  for (int i = 0; i < 3; ++i) {
    auto msg = broker.consume("q", 100ms);
    ASSERT_TRUE(msg.has_value());
    tags.push_back(msg->delivery_tag);
  }
  // Depth 2 == low watermark: resumed (delivery alone drains the queue).
  EXPECT_FALSE(broker.queue_paused("q"));
  EXPECT_FALSE(broker.publish_paused("stats.h"));
  EXPECT_EQ(broker.unacked_depth("q"), 3u);
  for (const auto tag : tags) broker.ack("q", tag);

  const auto r = broker.stats().resilience;
  EXPECT_EQ(r.paused_windows, 1u);
  EXPECT_EQ(r.resumed_windows, 1u);
}

TEST(AggregationTree, ShapeConstruction) {
  transport::TreeOptions opts;
  opts.leaf_brokers = 8;
  opts.fanout = 2;
  transport::AggregationTree tree(kQueue, opts, nullptr);
  // 8 -> 4 -> 2 -> 1: four tiers, 7 aggregators (one per upper broker).
  ASSERT_EQ(tree.tier_count(), 4u);
  EXPECT_EQ(tree.broker_count(0), 8u);
  EXPECT_EQ(tree.broker_count(1), 4u);
  EXPECT_EQ(tree.broker_count(2), 2u);
  EXPECT_EQ(tree.broker_count(3), 1u);
  EXPECT_EQ(tree.aggregator_count(), 7u);
  const auto rows = tree.tier_stats();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].brokers, 8u);
  EXPECT_EQ(rows[0].aggregators, 4u);  // tier-0 feeders
  EXPECT_EQ(rows[2].aggregators, 1u);
  EXPECT_EQ(rows[3].aggregators, 0u);  // nobody feeds from the root
}

TEST(AggregationTree, FlatDegeneratesToSingleBroker) {
  transport::AggregationTree tree(kQueue, transport::TreeOptions{}, nullptr);
  EXPECT_EQ(tree.tier_count(), 1u);
  EXPECT_EQ(tree.aggregator_count(), 0u);
  EXPECT_EQ(&tree.leaf_for("any-host"), &tree.root());
}

TEST(Aggregator, CoalescesPrefilledBatchIntoOneFrame) {
  transport::Broker child;
  child.declare_queue(kQueue);
  child.bind(kQueue, "stats.*");
  transport::Broker parent;
  parent.declare_queue(kQueue);
  parent.bind(kQueue, "stats.*");

  // Pre-fill: 10 same-window frames of one for c1, plus 3 + 2 for c2
  // straddling a window boundary — all before the aggregator starts, so
  // the burst consume sees them together.
  const auto log1 = make_synth_log("c1");
  const std::string h1 = log1.serialize_header();
  std::string c1_records;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto rec = make_synth_record(kStart + i * util::kMinute, 10 * i);
    transport::PublishInfo info;
    info.producer = "c1";
    info.seq = i + 1;
    info.now = rec.time;
    ASSERT_EQ(child.publish("stats.c1", frame_of_one("c1", i + 1, h1, rec),
                            info),
              1u);
    c1_records += collect::HostLog::serialize_record(rec);
  }
  const auto log2 = make_synth_log("c2");
  const std::string h2 = log2.serialize_header();
  for (std::uint64_t i = 0; i < 5; ++i) {
    // Records 0-2 in hour 0, records 3-4 in hour 1: two windows.
    const auto t = kStart + (i < 3 ? i * util::kMinute
                                   : util::kHour + i * util::kMinute);
    const auto rec = make_synth_record(t, 100 + i);
    transport::PublishInfo info;
    info.producer = "c2";
    info.seq = i + 1;
    info.now = rec.time;
    ASSERT_EQ(child.publish("stats.c2", frame_of_one("c2", i + 1, h2, rec),
                            info),
              1u);
  }

  transport::AggregatorOptions opts;
  opts.window = util::kHour;
  transport::Aggregator agg("agg-test", {&child}, parent, kQueue, opts,
                            nullptr);
  using namespace std::chrono_literals;
  for (int spin = 0; spin < 5000 && !agg.idle(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(agg.idle()) << "aggregator never went idle";
  agg.stop();

  // Everything consumed and acked below; coalesced frames above: one frame
  // for c1 (one window) and two for c2 (window rollover).
  EXPECT_EQ(child.depth(kQueue), 0u);
  EXPECT_EQ(child.unacked_depth(kQueue), 0u);
  EXPECT_EQ(parent.stats().published, 3u);
  const auto s = agg.stats();
  EXPECT_EQ(s.consumed, 15u);
  EXPECT_EQ(s.records_in, 15u);
  EXPECT_EQ(s.frames_out, 3u);
  EXPECT_EQ(s.records_out, 15u);

  std::map<std::string, std::vector<transport::AggFrame>> frames;
  while (auto msg = parent.consume(kQueue, 10ms)) {
    transport::AggFrame f;
    ASSERT_NO_THROW(f = transport::AggFrame::parse(msg->body));
    frames[msg->routing_key].push_back(std::move(f));
    parent.ack(kQueue, msg->delivery_tag);
  }
  ASSERT_EQ(frames["stats.c1"].size(), 1u);
  ASSERT_EQ(frames["stats.c2"].size(), 2u);
  const auto& f1 = frames["stats.c1"][0];
  EXPECT_EQ(f1.producer, "c1");
  EXPECT_EQ(f1.seqs, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                 10}));
  // One header copy, then the ten record bodies back to back.
  EXPECT_EQ(f1.header_len, h1.size());
  EXPECT_EQ(f1.payload, h1 + c1_records);
  EXPECT_EQ(frames["stats.c2"][0].seqs,
            (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(frames["stats.c2"][1].seqs, (std::vector<std::uint64_t>{4, 5}));
}

TEST(AggregationTree, DeliversEveryRecordExactlyOnceInOrder) {
  transport::TreeOptions opts;
  opts.leaf_brokers = 4;
  opts.fanout = 2;
  opts.batch_records = 4;  // several frames per host
  transport::AggregationTree tree(kQueue, opts, nullptr);
  transport::RawArchive archive;
  transport::ConsumerOptions copts;
  copts.dedup_window = 0;
  transport::Consumer consumer(tree.root(), archive, kQueue, nullptr, copts,
                               nullptr);

  constexpr std::size_t kHosts = 6;
  constexpr std::uint64_t kRecs = 10;
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::string host = "n" + std::to_string(h);
    const auto log = make_synth_log(host);
    const std::string header = log.serialize_header();
    for (std::uint64_t i = 0; i < kRecs; ++i) {
      const auto rec =
          make_synth_record(kStart + i * util::kMinute, h * 1000 + i);
      transport::PublishInfo info;
      info.producer = host;
      info.seq = i + 1;
      info.now = rec.time;
      ASSERT_EQ(tree.leaf_for(host).publish(
                    "stats." + host, frame_of_one(host, i + 1, header, rec),
                    info),
                1u);
    }
  }

  tree.quiesce();
  consumer.drain();

  EXPECT_EQ(archive.total_records(), kHosts * kRecs);
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::string host = "n" + std::to_string(h);
    EXPECT_EQ(archive.seen_count(host), kRecs);
    const auto log = archive.log(host);
    ASSERT_EQ(log.records.size(), kRecs) << host;
    for (std::uint64_t i = 0; i < kRecs; ++i) {
      // Per-host record order survives the tree (and the counter values
      // pin each record to its original position).
      EXPECT_EQ(log.records[i].time, kStart + i * util::kMinute);
      EXPECT_EQ(log.records[i].blocks.at(0).values.at(0), h * 1000 + i);
    }
  }
  // Pre-reduction actually happened: the root saw fewer messages than
  // records (frames of up to batch_records each).
  EXPECT_LT(tree.root().stats().published, kHosts * kRecs);
  EXPECT_GT(tree.root().stats().published, 0u);

  tree.stop();
  consumer.stop();
}

/// A frame of one for host c1 whose data row is one value short of the
/// schema's four: the frame itself is well formed, its record is not.
std::string short_row_frame(std::uint64_t seq, util::SimTime t) {
  auto rec = make_synth_record(t, seq);
  rec.blocks.at(0).values.pop_back();
  return frame_of_one("c1", seq, make_synth_log("c1").serialize_header(),
                      rec);
}

/// Publishes, under host c1's delivery identities, bodies that every
/// reader must refuse: a plain daemon chunk (no frame), two same-window
/// frames with header_len 0, a frame whose header_len cuts a schema
/// line, and a valid frame whose data row is one value short. An
/// aggregator that took the two header_len-0 frames would coalesce them
/// behind an empty header, and the consumer would then drop the merged
/// frame and both records with it. Returns the count.
std::size_t publish_misframed(transport::Broker& broker) {
  const std::string header = make_synth_log("c1").serialize_header();
  const auto chunk = [&](std::uint64_t i) {
    return header + collect::HostLog::serialize_record(
                        make_synth_record(kStart + i * util::kMinute, i));
  };
  const auto frame = [&](std::uint64_t i, std::size_t header_len) {
    return transport::AggFrame{"c1", {i + 1}, {0}, header_len, chunk(i)}
        .serialize();
  };
  const std::vector<std::string> bodies = {
      chunk(0), frame(1, 0), frame(2, 0), frame(3, header.find("\n!") + 4),
      short_row_frame(5, kStart + 4 * util::kMinute)};
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    transport::PublishInfo info;
    info.producer = "c1";
    info.seq = i + 1;
    info.now = kStart + static_cast<util::SimTime>(i) * util::kMinute;
    EXPECT_EQ(broker.publish("stats.c1", bodies[i], info), 1u);
  }
  return bodies.size();
}

TEST(Consumer, RefusesBodiesThatAreNotValidFrames) {
  transport::Broker broker;
  broker.declare_queue(kQueue);
  broker.bind(kQueue, "stats.*");
  transport::RawArchive archive;
  int callbacks = 0;
  transport::Consumer consumer(
      broker, archive, kQueue,
      [&](const std::string&, const collect::HostLog&) { ++callbacks; });
  const std::size_t n = publish_misframed(broker);
  consumer.drain();
  // Each body is delivered once (no faults), so n errors is one apiece.
  EXPECT_EQ(consumer.parse_errors(), n);
  EXPECT_EQ(consumer.consumed(), 0u);
  EXPECT_EQ(archive.total_records(), 0u);
  EXPECT_EQ(callbacks, 0);
  EXPECT_EQ(broker.depth(kQueue), 0u);
  EXPECT_EQ(broker.unacked_depth(kQueue), 0u);
  consumer.stop();
}

TEST(Aggregator, RefusesBodiesThatAreNotValidFrames) {
  transport::Broker child;
  child.declare_queue(kQueue);
  child.bind(kQueue, "stats.*");
  transport::Broker parent;
  parent.declare_queue(kQueue);
  parent.bind(kQueue, "stats.*");
  const std::size_t n = publish_misframed(child);

  transport::Aggregator agg("agg-test", {&child}, parent, kQueue, {},
                            nullptr);
  using namespace std::chrono_literals;
  for (int spin = 0; spin < 5000 && !agg.idle(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(agg.idle()) << "aggregator never went idle";
  agg.stop();

  const auto s = agg.stats();
  EXPECT_EQ(s.consumed, n);
  EXPECT_EQ(s.parse_errors, n);
  EXPECT_EQ(s.records_in, 0u);
  EXPECT_EQ(s.frames_out, 0u);
  EXPECT_EQ(parent.stats().published, 0u);
  EXPECT_EQ(child.depth(kQueue), 0u);
  EXPECT_EQ(child.unacked_depth(kQueue), 0u);
}

TEST(Aggregator, MalformedRecordSparesTheHostsGoodFrames) {
  // Two good frames of one for c1 around one whose data row is short, all
  // in one window: the aggregator refuses the bad frame alone, and the
  // good records coalesce and reach the archive.
  transport::Broker child;
  child.declare_queue(kQueue);
  child.bind(kQueue, "stats.*");
  transport::Broker parent;
  parent.declare_queue(kQueue);
  parent.bind(kQueue, "stats.*");
  const std::string header = make_synth_log("c1").serialize_header();
  const std::vector<std::string> bodies = {
      frame_of_one("c1", 1, header, make_synth_record(kStart, 10)),
      short_row_frame(2, kStart + util::kMinute),
      frame_of_one("c1", 3, header,
                   make_synth_record(kStart + 2 * util::kMinute, 30))};
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    transport::PublishInfo info;
    info.producer = "c1";
    info.seq = i + 1;
    info.now = kStart + static_cast<util::SimTime>(i) * util::kMinute;
    ASSERT_EQ(child.publish("stats.c1", bodies[i], info), 1u);
  }

  transport::RawArchive archive;
  transport::Consumer consumer(parent, archive, kQueue);
  transport::Aggregator agg("agg-test", {&child}, parent, kQueue, {},
                            nullptr);
  using namespace std::chrono_literals;
  for (int spin = 0; spin < 5000 && !agg.idle(); ++spin) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(agg.idle()) << "aggregator never went idle";
  agg.stop();
  consumer.drain();

  const auto s = agg.stats();
  EXPECT_EQ(s.consumed, 3u);
  EXPECT_EQ(s.parse_errors, 1u);
  EXPECT_EQ(s.records_in, 2u);
  EXPECT_EQ(s.frames_out, 1u);
  EXPECT_EQ(s.records_out, 2u);
  EXPECT_EQ(child.unacked_depth(kQueue), 0u);
  EXPECT_EQ(consumer.parse_errors(), 0u);
  const auto log = archive.log("c1");
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records[0].time, kStart);
  EXPECT_EQ(log.records[0].blocks.at(0).values.at(0), 10u);
  EXPECT_EQ(log.records[1].time, kStart + 2 * util::kMinute);
  EXPECT_EQ(log.records[1].blocks.at(0).values.at(0), 30u);
  consumer.stop();
}

// ---------------------------------------------------------------------------
// Topology-shape determinism: the same seed and fault schedule must produce
// a byte-identical archive whether the transport is flat, 2-tier, or
// 3-tier — and the downstream tsdb load must stay byte-identical across
// worker thread counts.

simhw::Cluster make_cluster(int n) {
  simhw::ClusterConfig cc;
  cc.num_nodes = n;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  return simhw::Cluster(cc);
}

workload::JobSpec job_spec(long id, int nodes, util::SimTime start,
                           util::SimTime runtime) {
  workload::JobSpec job;
  job.jobid = id;
  job.user = "alice";
  job.uid = 1001;
  job.profile = "wrf";
  job.exe = "wrf.exe";
  job.nodes = nodes;
  job.wayness = 8;
  job.submit_time = start - util::kMinute;
  job.start_time = start;
  job.end_time = start + runtime;
  return job;
}

/// Chaos on every transport site, including the aggregator tier. No outage
/// windows on aggregator.publish: a frame's fault time is content-stable,
/// so an outage there would never clear.
std::shared_ptr<util::FaultPlan> tree_chaos_plan(std::uint64_t seed) {
  auto plan = std::make_shared<util::FaultPlan>(seed);
  util::FaultSpec publish;
  publish.drop_rate = 0.05;
  publish.duplicate_rate = 0.02;
  publish.delay_rate = 0.1;
  publish.delay_min = util::kSecond;
  publish.delay_max = 30 * util::kSecond;
  plan->set(std::string(util::kFaultBrokerPublish), publish);
  util::FaultSpec daemon;
  daemon.error_rate = 0.02;
  plan->set(std::string(util::kFaultDaemonPublish), daemon);
  util::FaultSpec agg_publish;
  agg_publish.error_rate = 0.15;
  plan->set(std::string(util::kFaultAggregatorPublish), agg_publish);
  util::FaultSpec agg_crash;
  agg_crash.error_rate = 0.1;
  plan->set(std::string(util::kFaultAggregatorCrash), agg_crash);
  util::FaultSpec crash;
  crash.error_rate = 0.05;
  plan->set(std::string(util::kFaultConsumerCrash), crash);
  return plan;
}

std::string fingerprint(const transport::RawArchive& archive) {
  auto hosts = archive.hosts();
  std::sort(hosts.begin(), hosts.end());
  std::string out;
  for (const auto& host : hosts) {
    out += "== " + host + " ==\n";
    out += archive.log(host).serialize();
  }
  return out;
}

struct ShapeResult {
  std::string archive_bytes;
  std::uint64_t published_unique = 0;
  std::size_t total_records = 0;
};

ShapeResult run_shape(const transport::TreeOptions& topology,
                      std::uint64_t seed) {
  auto cluster = make_cluster(4);
  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kStart;
  mc.online_analysis = false;
  mc.fault_plan = tree_chaos_plan(seed);
  mc.consumer_options.dedup_window = 0;
  mc.topology = topology;
  core::ClusterMonitor monitor(cluster, mc);

  const auto job = job_spec(500, 4, kStart, 3 * util::kHour);
  monitor.job_started(job, {0, 1, 2, 3});
  monitor.advance_to(kStart + 3 * util::kHour);
  monitor.job_ended(job.jobid);
  monitor.advance_to(kStart + 4 * util::kHour);
  monitor.drain();

  ShapeResult result;
  result.archive_bytes = fingerprint(monitor.archive());
  result.published_unique = monitor.published_unique();
  result.total_records = monitor.archive().total_records();
  return result;
}

TEST(TopologyDeterminism, ArchiveBytesIdenticalAcrossShapes) {
  transport::TreeOptions flat;
  transport::TreeOptions two_tier;
  two_tier.leaf_brokers = 4;
  two_tier.fanout = 4;
  two_tier.batch_records = 8;
  transport::TreeOptions three_tier;
  three_tier.leaf_brokers = 8;
  three_tier.fanout = 2;
  three_tier.batch_records = 4;

  const auto a = run_shape(flat, 977);
  const auto b = run_shape(two_tier, 977);
  const auto c = run_shape(three_tier, 977);

  // Non-vacuous: records flowed and everything published was archived.
  EXPECT_GT(a.total_records, 0u);
  EXPECT_EQ(a.total_records, a.published_unique);
  EXPECT_EQ(b.total_records, b.published_unique);
  EXPECT_EQ(c.total_records, c.published_unique);
  EXPECT_EQ(a.published_unique, b.published_unique);
  EXPECT_EQ(a.published_unique, c.published_unique);
  // The invariant: same seed => byte-identical archive, whatever the tree.
  EXPECT_EQ(a.archive_bytes, b.archive_bytes);
  EXPECT_EQ(a.archive_bytes, c.archive_bytes);
}

TEST(TopologyDeterminism, TsdbQueriesIdenticalAcrossThreadCounts) {
  // One tree-topology run, then the archive -> tsdb load at 1, 2, and 8
  // workers: query results must be byte-identical.
  auto cluster = make_cluster(4);
  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kStart;
  mc.online_analysis = false;
  mc.fault_plan = tree_chaos_plan(977);
  mc.consumer_options.dedup_window = 0;
  mc.topology.leaf_brokers = 4;
  mc.topology.fanout = 2;
  mc.topology.batch_records = 8;
  core::ClusterMonitor monitor(cluster, mc);
  const auto job = job_spec(501, 4, kStart, 2 * util::kHour);
  monitor.job_started(job, {0, 1, 2, 3});
  monitor.advance_to(kStart + 2 * util::kHour);
  monitor.job_ended(job.jobid);
  monitor.drain();
  ASSERT_GT(monitor.archive().total_records(), 0u);

  tsdb::StoreOptions serial_so;
  serial_so.shards = 16;
  tsdb::Store serial(serial_so);
  const auto serial_stats =
      pipeline::ingest_archive_tsdb(serial, monitor.archive(), nullptr);
  pipeline::TsdbIngestOptions opts;
  opts.batch_points = 64;  // force mid-host flushes
  for (const std::size_t workers : {2u, 8u}) {
    util::ThreadPool pool(workers);
    tsdb::StoreOptions so;
    so.shards = 4;
    tsdb::Store store(so);
    const auto stats =
        pipeline::ingest_archive_tsdb(store, monitor.archive(), &pool, opts);
    EXPECT_EQ(stats.points, serial_stats.points);
    EXPECT_EQ(store.num_points(), serial.num_points());
    tsdb::Query q;
    q.metric = "taccstats.cpu.user";
    q.group_by = {"host"};
    const auto a = serial.query(q);
    const auto b = store.query(q);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].group_tags, b[i].group_tags);
      ASSERT_EQ(a[i].points.size(), b[i].points.size());
      for (std::size_t p = 0; p < a[i].points.size(); ++p) {
        EXPECT_EQ(a[i].points[p].time, b[i].points[p].time);
        EXPECT_EQ(a[i].points[p].value, b[i].points[p].value);
      }
    }
  }
}

TEST(Backpressure, WatermarksPauseTiersAndDaemonsSpool) {
  auto cluster = make_cluster(4);
  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kStart;
  mc.online_analysis = false;
  mc.consumer_options.dedup_window = 0;
  mc.topology.leaf_brokers = 2;
  mc.topology.fanout = 2;
  mc.topology.batch_records = 4;
  mc.topology.high_watermark = 4;  // resumes at 2
  core::ClusterMonitor monitor(cluster, mc);

  // Kill the consumer and keep collecting: the root fills to its high
  // watermark, the aggregator stops pulling, the leaf queues fill and trip
  // their own watermarks, and the daemons spool locally — the Paused
  // signal cascades down the tree with no control channel.
  monitor.crash_consumer();
  monitor.advance_to(kStart + 2 * util::kHour);

  const auto mid = monitor.resilience_stats();
  EXPECT_GT(mid.paused_windows, 0u) << "no tier ever paused";
  EXPECT_GT(monitor.spool_depth(), 0u) << "daemons never spooled";
  EXPECT_GT(mid.spooled, 0u);

  // Recovery: a fresh consumer drains the root, tiers resume, spools
  // replay, and nothing was lost.
  monitor.restart_consumer();
  monitor.advance_to(kStart + 3 * util::kHour);
  monitor.drain();

  EXPECT_EQ(monitor.spool_depth(), 0u);
  EXPECT_EQ(monitor.archive().total_records(), monitor.published_unique());
  const auto r = monitor.resilience_stats();
  EXPECT_GT(r.resumed_windows, 0u);
  // Every queue ends empty, so every pause crossing was matched by a
  // resume crossing.
  EXPECT_EQ(r.paused_windows, r.resumed_windows);
  EXPECT_EQ(r.spooled, r.replayed);
}

TEST(Backpressure, AggregatorCrashRedeliveryIsAbsorbedByDedup) {
  auto plan = std::make_shared<util::FaultPlan>(31337);
  util::FaultSpec agg_crash;
  agg_crash.error_rate = 0.3;  // NOT 1.0: every rebuilt frame would re-crash
  plan->set(std::string(util::kFaultAggregatorCrash), agg_crash);
  util::FaultSpec agg_publish;
  agg_publish.error_rate = 0.2;
  plan->set(std::string(util::kFaultAggregatorPublish), agg_publish);

  auto cluster = make_cluster(4);
  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kStart;
  mc.online_analysis = false;
  mc.fault_plan = plan;
  mc.consumer_options.dedup_window = 0;
  mc.topology.leaf_brokers = 4;
  mc.topology.fanout = 2;
  mc.topology.batch_records = 4;
  core::ClusterMonitor monitor(cluster, mc);

  monitor.advance_to(kStart + 3 * util::kHour);
  monitor.drain();

  // Crashes happened, children redelivered, dedup absorbed the overlap:
  // exactly-once end to end regardless.
  const auto r = monitor.resilience_stats();
  EXPECT_GT(r.requeued, 0u) << "no aggregator crash ever fired";
  EXPECT_GT(r.injected_errors, 0u) << "no upward publish ever failed";
  EXPECT_EQ(monitor.archive().total_records(), monitor.published_unique());
}

}  // namespace
}  // namespace tacc

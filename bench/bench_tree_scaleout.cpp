// Hierarchical aggregation transport at scale: sharded leaf brokers +
// aggregator tiers pre-reducing same-window per-host batches into coalesced
// frames, against the flat single-broker pipeline.
//
// Phase 1 — root ingest throughput. The same synthetic workload (header-
// heavy host logs: the header is ~20x the record, as on real nodes with
// dozens of schemas), each record published the way a daemon publishes it,
// as a frame of one, is staged once into a flat root queue and once through
// a tree whose aggregators coalesce each host's records behind a single
// header copy. The consumer's drain of the root is timed in isolation both
// ways. The tree wins on two axes: the root sees ~records/batch fewer
// messages (fewer lock acquisitions, fewer header bytes), and the consumer
// parses each host's header once per frame instead of once per record.
// Gate (full size, 10k nodes): tree root throughput >= 5x flat.
// Gate (all sizes): coalescing ratio >= 4 records per root message.
//
// Phase 2 — scale-out soak. 100k simulated nodes (smoke: 2k) publish
// window after window through a 3-tier tree with watermark backpressure and
// a chaos plan (broker drops/dups, aggregator publish failures, aggregator
// crashes) while a live consumer drains the root. Gates: exact conservation
// (archived + dead-lettered + spooled == published), zero duplicates in the
// archive, per-tier ResilienceStats rows summing field-by-field to the
// tree-wide totals, and pause/resume accounting balancing to zero.
//
// Results land in BENCH_transport.json; any gate failure exits nonzero so
// the CI bench-smoke job fails loudly.
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "collect/rawfile.hpp"
#include "transport/archive.hpp"
#include "transport/broker.hpp"
#include "transport/consumer.hpp"
#include "transport/frame.hpp"
#include "transport/topology.hpp"
#include "util/clock.hpp"
#include "util/fault.hpp"

namespace {

using namespace tacc;

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;
constexpr const char* kQueue = "raw_stats";

bool g_gates_ok = true;

void gate(bool ok, const std::string& what) {
  std::printf("  gate %-52s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
  if (!ok) g_gates_ok = false;
}

/// A header-heavy host log: 12 schemas x 8 keys (~1.3 KB of header) and
/// small 8-counter records, the shape that makes per-record header
/// shipping expensive and coalescing worthwhile.
collect::HostLog make_host_log(const std::string& host) {
  collect::HostLog log;
  log.hostname = host;
  log.arch = "synth";
  for (int s = 0; s < 12; ++s) {
    std::vector<collect::SchemaEntry> entries;
    for (int k = 0; k < 8; ++k) {
      entries.push_back({"counter" + std::to_string(k), true, 64, "events",
                         1.0});
    }
    log.schemas.emplace_back("dev" + std::to_string(s), std::move(entries));
  }
  return log;
}

collect::Record make_record(std::size_t host_id, std::uint64_t seq,
                            util::SimTime t) {
  collect::Record rec;
  rec.time = t;
  rec.jobids = {424242};
  collect::RawBlock b;
  b.type = "dev0";
  b.device = "0";
  for (std::uint64_t k = 0; k < 8; ++k) {
    b.values.push_back(host_id * 1000 + seq * 8 + k);
  }
  rec.blocks.push_back(std::move(b));
  return rec;
}

std::string host_name(std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "synth-%06zu", i);
  return buf;
}

/// Pre-serialized per-host bodies for one workload: bodies[h][r] is the
/// daemon's message for record r, a frame of one (header + one record
/// under seq r + 1), ready to publish.
struct Workload {
  std::vector<std::string> hosts;
  std::vector<std::vector<std::string>> bodies;
  std::vector<std::vector<util::SimTime>> times;
  std::size_t total_records = 0;
  std::size_t bytes = 0;
};

Workload make_workload(std::size_t nodes, std::size_t records) {
  Workload w;
  w.hosts.reserve(nodes);
  w.bodies.resize(nodes);
  w.times.resize(nodes);
  for (std::size_t h = 0; h < nodes; ++h) {
    w.hosts.push_back(host_name(h));
    const auto log = make_host_log(w.hosts[h]);
    const std::string header = log.serialize_header();
    w.bodies[h].reserve(records);
    w.times[h].reserve(records);
    for (std::uint64_t r = 0; r < records; ++r) {
      // 3-minute cadence keeps a host's records inside one 1h window.
      const auto t = kStart + static_cast<util::SimTime>(r) * 3 * util::kMinute;
      w.bodies[h].push_back(
          transport::AggFrame{
              w.hosts[h], {r + 1}, {0}, header.size(),
              header + collect::HostLog::serialize_record(
                           make_record(h, r + 1, t))}
              .serialize());
      w.times[h].push_back(t);
      w.bytes += w.bodies[h].back().size();
      ++w.total_records;
    }
  }
  return w;
}

double wall_seconds(const std::chrono::steady_clock::time_point t0) {
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

struct RootDrain {
  double seconds = 0;
  std::size_t root_messages = 0;
  std::size_t archived = 0;
};

/// Flat baseline: every chunk is staged into the root queue, then a fresh
/// consumer's drain is timed.
RootDrain run_flat(const Workload& w) {
  transport::Broker broker;
  broker.declare_queue(kQueue);
  broker.bind(kQueue, "stats.*");
  for (std::size_t h = 0; h < w.hosts.size(); ++h) {
    for (std::size_t r = 0; r < w.bodies[h].size(); ++r) {
      transport::PublishInfo info;
      info.producer = w.hosts[h];
      info.seq = r + 1;
      info.now = w.times[h][r];
      broker.publish("stats." + w.hosts[h], w.bodies[h][r], info);
    }
  }
  RootDrain out;
  out.root_messages = broker.depth(kQueue);
  transport::RawArchive archive;
  transport::ConsumerOptions copts;
  copts.dedup_window = 0;
  const auto t0 = std::chrono::steady_clock::now();
  transport::Consumer consumer(broker, archive, kQueue, nullptr, copts,
                               nullptr);
  consumer.drain();
  out.seconds = wall_seconds(t0);
  out.archived = archive.total_records();
  consumer.stop();
  return out;
}

/// Tree: chunks enter at the leaf shards, aggregators coalesce them into
/// frames that settle in the root queue (quiesce), then the root drain is
/// timed — same stage of the pipeline as the flat baseline.
RootDrain run_tree(const Workload& w, std::size_t leaves, std::size_t fanout) {
  transport::TreeOptions opts;
  opts.leaf_brokers = leaves;
  opts.fanout = fanout;
  opts.batch_records = 64;
  opts.window = util::kHour;
  transport::AggregationTree tree(kQueue, opts, nullptr);
  for (std::size_t h = 0; h < w.hosts.size(); ++h) {
    transport::Broker& leaf = tree.leaf_for(w.hosts[h]);
    for (std::size_t r = 0; r < w.bodies[h].size(); ++r) {
      transport::PublishInfo info;
      info.producer = w.hosts[h];
      info.seq = r + 1;
      info.now = w.times[h][r];
      leaf.publish("stats." + w.hosts[h], w.bodies[h][r], info);
    }
  }
  tree.quiesce();  // every record is now a frame in the root queue
  RootDrain out;
  out.root_messages = tree.root().depth(kQueue);
  transport::RawArchive archive;
  transport::ConsumerOptions copts;
  copts.dedup_window = 0;
  const auto t0 = std::chrono::steady_clock::now();
  transport::Consumer consumer(tree.root(), archive, kQueue, nullptr, copts,
                               nullptr);
  consumer.drain();
  out.seconds = wall_seconds(t0);
  out.archived = archive.total_records();
  tree.stop();
  consumer.stop();
  return out;
}

void report_phase1(bench::BenchJson& json) {
  const bool smoke = bench::bench_smoke();
  const std::size_t nodes = smoke ? 500 : 10000;
  const std::size_t records = smoke ? 8 : 16;
  bench::banner("Phase 1: root ingest throughput, flat vs tree (" +
                std::to_string(nodes) + " nodes x " +
                std::to_string(records) + " records)");
  const Workload w = make_workload(nodes, records);
  const int reps = 2;

  RootDrain flat;
  RootDrain tree;
  for (int i = 0; i < reps; ++i) {
    const auto f = run_flat(w);
    if (i == 0 || f.seconds < flat.seconds) flat = f;
    const auto t = run_tree(w, 8, 8);
    if (i == 0 || t.seconds < tree.seconds) tree = t;
  }

  const double flat_rps = static_cast<double>(flat.archived) / flat.seconds;
  const double tree_rps = static_cast<double>(tree.archived) / tree.seconds;
  const double speedup = tree_rps / flat_rps;
  const double coalesce =
      static_cast<double>(w.total_records) /
      static_cast<double>(tree.root_messages);

  bench::ReproTable t;
  t.row("workload", "-",
        bench::num(static_cast<double>(w.bytes) / 1e6, 1) + " MB",
        std::to_string(w.total_records) + " records, header-heavy");
  t.row("flat: root messages", "-", std::to_string(flat.root_messages),
        "one header per record");
  t.row("tree: root messages", "-", std::to_string(tree.root_messages),
        "coalesced frames");
  t.row("coalescing ratio", ">= 4 (acceptance)", bench::num(coalesce, 1),
        "records per root message");
  t.row("flat: root drain", "baseline",
        bench::num(flat_rps / 1e3, 1) + " krec/s",
        bench::num(flat.seconds, 3) + " s");
  t.row("tree: root drain", smoke ? "-" : ">= 5x flat (acceptance)",
        bench::num(tree_rps / 1e3, 1) + " krec/s",
        bench::num(speedup, 2) + "x flat");
  t.print();

  gate(flat.archived == w.total_records, "flat archives every record");
  gate(tree.archived == w.total_records, "tree archives every record");
  gate(coalesce >= 4.0, "coalescing ratio >= 4");
  if (!smoke) {
    gate(speedup >= 5.0, "tree root throughput >= 5x flat");
  }

  json.put("phase1.nodes", nodes);
  json.put("phase1.records", w.total_records);
  json.put("phase1.flat_records_per_s", flat_rps);
  json.put("phase1.tree_records_per_s", tree_rps);
  json.put("phase1.speedup", speedup);
  json.put("phase1.coalesce_ratio", coalesce);
  json.put("phase1.flat_root_messages", flat.root_messages);
  json.put("phase1.tree_root_messages", tree.root_messages);
}

/// Field-by-field sum of per-tier resilience rows — deliberately not via
/// merge(), so the rollup gate is an independent accumulator.
util::ResilienceStats sum_rows(const std::vector<transport::TierStats>& rows) {
  util::ResilienceStats t;
  for (const auto& row : rows) {
    const auto& s = row.resilience;
    t.injected_drops += s.injected_drops;
    t.injected_duplicates += s.injected_duplicates;
    t.injected_delays += s.injected_delays;
    t.injected_errors += s.injected_errors;
    t.retries += s.retries;
    t.spooled += s.spooled;
    t.replayed += s.replayed;
    t.spool_dropped += s.spool_dropped;
    t.dead_lettered += s.dead_lettered;
    t.requeued += s.requeued;
    t.deduped += s.deduped;
    t.paused_windows += s.paused_windows;
    t.resumed_windows += s.resumed_windows;
  }
  return t;
}

void report_phase2(bench::BenchJson& json) {
  const bool smoke = bench::bench_smoke();
  const std::size_t nodes = smoke ? 2000 : 100000;
  const std::size_t windows = 4;
  bench::banner("Phase 2: scale-out soak, " + std::to_string(nodes) +
                " simulated nodes, 3-tier tree, chaos + backpressure");

  auto plan = std::make_shared<util::FaultPlan>(20160104);
  util::FaultSpec publish;
  publish.drop_rate = 0.02;
  publish.duplicate_rate = 0.02;
  plan->set(std::string(util::kFaultBrokerPublish), publish);
  util::FaultSpec agg_publish;
  agg_publish.error_rate = 0.05;
  plan->set(std::string(util::kFaultAggregatorPublish), agg_publish);
  util::FaultSpec agg_crash;
  agg_crash.error_rate = 0.02;
  plan->set(std::string(util::kFaultAggregatorCrash), agg_crash);

  transport::TreeOptions opts;
  opts.leaf_brokers = 16;
  opts.fanout = 4;  // 16 -> 4 -> 1
  opts.batch_records = 64;
  opts.window = util::kHour;
  opts.high_watermark = smoke ? 64 : 1024;
  transport::AggregationTree tree(kQueue, opts, plan);
  transport::RawArchive archive;
  transport::ConsumerOptions copts;
  copts.dedup_window = 0;
  transport::Consumer consumer(tree.root(), archive, kQueue, nullptr, copts,
                               plan);

  // Precompute shard assignment and headers once; the publish loop below
  // simulates the daemon fleet: frames of one, with the daemon's
  // retry-on-drop behavior.
  std::vector<transport::Broker*> leaf(nodes);
  std::vector<std::string> headers(nodes);
  std::vector<std::string> keys(nodes);
  std::vector<std::string> hosts(nodes);
  for (std::size_t h = 0; h < nodes; ++h) {
    hosts[h] = host_name(h);
    leaf[h] = &tree.leaf_for(hosts[h]);
    headers[h] = make_host_log(hosts[h]).serialize_header();
    keys[h] = "stats." + hosts[h];
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::size_t published = 0;
  for (std::uint64_t w = 0; w < windows; ++w) {
    const auto t = kStart + static_cast<util::SimTime>(w) * util::kHour;
    for (std::size_t h = 0; h < nodes; ++h) {
      const std::string body =
          transport::AggFrame{
              hosts[h], {w + 1}, {0}, headers[h].size(),
              headers[h] + collect::HostLog::serialize_record(
                               make_record(h, w + 1, t))}
              .serialize();
      for (std::uint32_t attempt = 0; attempt < 10; ++attempt) {
        transport::PublishInfo info;
        info.producer = hosts[h];
        info.seq = w + 1;
        info.attempt = attempt;
        info.now = t;
        if (leaf[h]->publish(keys[h], body, info) > 0) {
          ++published;
          break;
        }
      }
    }
  }
  tree.quiesce();
  consumer.drain();
  const double seconds = wall_seconds(t0);
  const double rps = static_cast<double>(published) / seconds;

  // --- Conservation (exact) -------------------------------------------
  std::size_t archived_unique = 0;
  for (const auto& host : archive.hosts()) {
    archived_unique += archive.seen_count(host);
  }
  std::set<std::pair<std::string, std::uint64_t>> dead_unique;
  for (const auto& msg : tree.drain_all_dead_letters()) {
    for (const auto& [producer, seq] : transport::AggFrame::message_seqs(msg)) {
      if (!archive.was_seen(producer, seq)) dead_unique.insert({producer, seq});
    }
  }
  const std::size_t spooled_now = tree.spool_records();
  const bool conserved =
      archived_unique + dead_unique.size() + spooled_now == published;

  // --- Per-tier rollup (exact) ----------------------------------------
  const auto rows = tree.tier_stats();
  const auto summed = sum_rows(rows);
  const auto total = tree.resilience();
  const bool rollup_exact = summed == total;

  util::TextTable topo;
  topo.header({"tier", "brokers", "aggs", "paused", "resumed", "requeued",
               "spooled", "replayed"});
  for (const auto& row : rows) {
    topo.row({std::to_string(row.tier), std::to_string(row.brokers),
              std::to_string(row.aggregators),
              std::to_string(row.resilience.paused_windows),
              std::to_string(row.resilience.resumed_windows),
              std::to_string(row.resilience.requeued),
              std::to_string(row.resilience.spooled),
              std::to_string(row.resilience.replayed)});
  }
  std::fputs(topo.render().c_str(), stdout);

  bench::ReproTable t;
  t.row("nodes x windows", "-",
        std::to_string(nodes) + " x " + std::to_string(windows),
        std::to_string(published) + " records published");
  t.row("end-to-end throughput", "-", bench::num(rps / 1e3, 1) + " krec/s",
        bench::num(seconds, 2) + " s wall");
  t.row("archived unique", "== published - dead - spooled",
        std::to_string(archived_unique),
        "dead " + std::to_string(dead_unique.size()) + ", spooled " +
            std::to_string(spooled_now));
  t.row("pause/resume transitions", "balanced",
        std::to_string(total.paused_windows) + " / " +
            std::to_string(total.resumed_windows),
        "deduped " + std::to_string(total.deduped + consumer.resilience()
                                                        .deduped));
  t.print();

  gate(conserved, "conservation: archived + dead + spooled == published");
  gate(archive.total_records() == archived_unique,
       "zero duplicates in the archive");
  gate(rollup_exact, "tier rows sum exactly to tree-wide resilience");
  gate(total.paused_windows == total.resumed_windows,
       "every pause matched by a resume");

  json.put("phase2.nodes", nodes);
  json.put("phase2.published", published);
  json.put("phase2.archived", archived_unique);
  json.put("phase2.records_per_s", rps);
  json.put("phase2.paused_windows", total.paused_windows);
  json.put("phase2.resumed_windows", total.resumed_windows);
  json.put("phase2.requeued", total.requeued);
  json.put("phase2.deduped",
           total.deduped + consumer.resilience().deduped);
  json.put("phase2.aggregator_spooled", total.spooled);

  tree.stop();
  consumer.stop();
}

void report() {
  bench::BenchJson json("tree_scaleout");
  report_phase1(json);
  report_phase2(json);
  json.write(bench::bench_json_path("BENCH_transport.json"));
  if (!g_gates_ok) {
    std::fputs("\nbench_tree_scaleout: acceptance gate failed\n", stderr);
    std::exit(1);
  }
}

}  // namespace

TS_BENCH_MAIN(report)

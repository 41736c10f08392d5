// Section VI-A reproduction: time-series analysis of job interference over
// the shared Lustre filesystem. The paper's plan: import the per-host
// series into OpenTSDB, tagged by (host, device type, device name, event),
// aggregate along any tag subset, and relate one user's metadata request
// rate to other users' Lustre operation wait times.
//
// The harness runs a storm job alongside victim jobs on a cluster whose
// engine models shared-MDS queueing (service time grows with the
// cluster-wide request load), loads the COLLECTED wait/request series into
// the tsdb store, and shows the correlation between the aggregate storm
// request rate and the victims' observed per-request wait — the
// interference signature the paper wants to automate. The wait inflation
// here is emergent from the collected counters, not post-processed.
#include "bench_common.hpp"

#include <bit>
#include <chrono>
#include <filesystem>
#include <tuple>

#include "bench_json.hpp"
#include "core/monitor.hpp"
#include "tsdb/store.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tacc;

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;

struct InterferenceSetup {
  tsdb::Store store;
  std::vector<double> storm_rate;    // aggregate storm MDS reqs/s
  std::vector<double> victim_wait;   // victims' mean us per MDS op
};

/// Runs a 12-node cluster where a storm job shares the MDS with victim
/// jobs; MDS service time degrades with total request load (queueing), and
/// the per-host series land in the tsdb store.
InterferenceSetup run_interference() {
  InterferenceSetup setup;
  simhw::ClusterConfig cc;
  cc.num_nodes = 12;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);

  core::MonitorConfig mc;
  mc.start = kStart;
  mc.online_analysis = false;
  core::ClusterMonitor monitor(cluster, mc);

  // Victims: two well-behaved WRF jobs on nodes 0-7.
  for (int v = 0; v < 2; ++v) {
    workload::JobSpec job;
    job.jobid = 100 + v;
    job.user = "victim" + std::to_string(v);
    job.profile = "wrf";
    job.exe = "wrf.exe";
    job.nodes = 4;
    job.wayness = 8;
    job.start_time = kStart;
    job.end_time = kStart + 6 * util::kHour;
    job.submit_time = kStart;
    monitor.job_started(job,
                        {static_cast<std::size_t>(v * 4),
                         static_cast<std::size_t>(v * 4 + 1),
                         static_cast<std::size_t>(v * 4 + 2),
                         static_cast<std::size_t>(v * 4 + 3)});
  }
  // The storm runs only in the middle third of the window.
  workload::JobSpec storm;
  storm.jobid = 999;
  storm.user = "wrfuser42";
  storm.profile = "wrf_mdstorm";
  storm.exe = "wrf.exe";
  storm.nodes = 4;
  storm.wayness = 8;
  storm.start_time = kStart + 2 * util::kHour;
  storm.end_time = kStart + 4 * util::kHour;
  storm.submit_time = storm.start_time;

  monitor.advance_to(storm.start_time);
  monitor.job_started(storm, {8, 9, 10, 11});
  monitor.advance_to(storm.end_time);
  monitor.job_ended(storm.jobid);
  monitor.advance_to(kStart + 6 * util::kHour);
  monitor.drain();

  // Import every host's COLLECTED mdc series (request rate and observed
  // per-request wait) into the tsdb with the paper's tag tuple. The wait
  // inflation during the storm comes from the engine's shared-MDS queueing,
  // carried through the raw counters.
  for (const auto& host : monitor.archive().hosts()) {
    const auto log = monitor.archive().log(host);
    const auto* schema = log.schema_for("mdc");
    if (schema == nullptr) continue;
    const auto reqs_idx = *schema->index_of("reqs");
    const auto wait_idx = *schema->index_of("wait");
    std::uint64_t prev_reqs = 0;
    std::uint64_t prev_wait = 0;
    util::SimTime prev_t = 0;
    bool have_prev = false;
    const std::string user = host >= "c400-009" ? "wrfuser42" : "victim";
    // Stage each host's two derived series and append them as whole runs:
    // put_batch resolves each series once per host instead of once per
    // point.
    std::vector<tsdb::DataPoint> reqs_points;
    std::vector<tsdb::DataPoint> wait_points;
    for (const auto& rec : log.records) {
      std::uint64_t reqs = 0;
      std::uint64_t wait = 0;
      for (const auto& block : rec.blocks) {
        if (block.type == "mdc") {
          reqs += block.values[reqs_idx];
          wait += block.values[wait_idx];
        }
      }
      if (have_prev && rec.time > prev_t && reqs > prev_reqs) {
        const double dreqs = static_cast<double>(reqs - prev_reqs);
        const double rate = dreqs / util::to_seconds(rec.time - prev_t);
        const util::SimTime bucket =
            rec.time - rec.time % (10 * util::kMinute);
        reqs_points.push_back({bucket, rate});
        wait_points.push_back(
            {bucket, static_cast<double>(wait - prev_wait) / dreqs});
      }
      prev_reqs = reqs;
      prev_wait = wait;
      prev_t = rec.time;
      have_prev = true;
    }
    setup.store.put_batch(
        "lustre.mdc.reqs_ps",
        {{"host", host}, {"type", "mdc"}, {"event", "reqs"}, {"user", user}},
        reqs_points);
    setup.store.put_batch(
        "lustre.mdc.wait_us",
        {{"host", host}, {"type", "mdc"}, {"event", "wait"}, {"user", user}},
        wait_points);
  }

  // Extract the two aligned series via tsdb queries.
  tsdb::Query storm_q;
  storm_q.metric = "lustre.mdc.reqs_ps";
  storm_q.filters = {{"user", "wrfuser42"}};
  storm_q.aggregator = tsdb::Aggregator::Sum;
  storm_q.downsample = 10 * util::kMinute;
  tsdb::Query wait_q;
  wait_q.metric = "lustre.mdc.wait_us";
  wait_q.filters = {{"user", "victim"}};
  wait_q.aggregator = tsdb::Aggregator::Avg;
  wait_q.downsample = 10 * util::kMinute;

  std::map<util::SimTime, double> storm_by_t;
  for (const auto& r : setup.store.query(storm_q)) {
    for (const auto& p : r.points) storm_by_t[p.time] = p.value;
  }
  for (const auto& r : setup.store.query(wait_q)) {
    for (const auto& p : r.points) {
      setup.storm_rate.push_back(storm_by_t.count(p.time)
                                     ? storm_by_t[p.time]
                                     : 0.0);
      setup.victim_wait.push_back(p.value);
    }
  }
  return setup;
}

void report() {
  bench::banner(
      "Section VI-A: cross-job interference via the time-series store");
  auto setup = run_interference();
  const double r = util::pearson(
      std::span<const double>(setup.storm_rate.data(),
                              setup.storm_rate.size()),
      std::span<const double>(setup.victim_wait.data(),
                              setup.victim_wait.size()));

  const double quiet_wait = [&] {
    util::RunningStat s;
    for (std::size_t i = 0; i < setup.storm_rate.size(); ++i) {
      if (setup.storm_rate[i] < 1000.0) s.add(setup.victim_wait[i]);
    }
    return s.mean();
  }();
  const double storm_wait = [&] {
    util::RunningStat s;
    for (std::size_t i = 0; i < setup.storm_rate.size(); ++i) {
      if (setup.storm_rate[i] >= 1000.0) s.add(setup.victim_wait[i]);
    }
    return s.mean();
  }();

  bench::ReproTable t;
  t.row("series in store", "per (host, type, device, event) tuple",
        std::to_string(setup.store.num_series()) + " series, " +
            std::to_string(setup.store.num_points()) + " points",
        "tag-aggregable, OpenTSDB-style");
  t.row("storm reqs vs victim wait correlation",
        "positive (interference over shared MDS)", bench::num(r, 3),
        "emergent from collected counters, via two tsdb queries");
  t.row("victim MDS wait, quiet windows", "-",
        bench::num(quiet_wait, 4) + " us/op", "");
  t.row("victim MDS wait, storm windows", "-",
        bench::num(storm_wait, 4) + " us/op",
        "one user's jobs degrade everyone's metadata latency");
  t.print();
}

// ---- Compressed block storage + rollup read path ----
// The Fig. 2-style archive workload: a daemon-mode monitor runs a cluster
// for a simulated day and every raw counter stream is loaded into the
// time-series store. The compressed store (sealed Gorilla blocks, default
// block_points) is measured against a raw store (block_points = 0, never
// sealed — the pre-block-tier full-scan layout) for storage bytes/point
// and for whole-job downsampled aggregate queries, where buckets cover
// whole blocks and are answered from summaries (the rollup fast path).
void report_storage() {
  bench::banner(
      "Compressed block storage + rollup read path (Fig. 2 archive "
      "workload)");
  const bool smoke = bench::bench_smoke();
  const int nodes = smoke ? 4 : 16;
  const util::SimTime window = (smoke ? 3 : 24) * util::kHour;

  simhw::ClusterConfig cc;
  cc.num_nodes = nodes;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);
  core::MonitorConfig mc;
  mc.start = kStart;
  // 1-minute cadence: a day of samples per series, so the read path is
  // dominated by point data (decode vs summary), not per-query overhead.
  mc.interval = util::kMinute;
  mc.online_analysis = false;
  core::ClusterMonitor monitor(cluster, mc);
  monitor.advance_to(kStart + window);
  monitor.drain();
  const auto& archive = monitor.archive();

  const auto timed_ingest = [&](const tsdb::StoreOptions& so, bool seal) {
    tsdb::Store store(so);
    pipeline::TsdbIngestOptions io;
    io.seal = seal;
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats = pipeline::ingest_archive_tsdb(store, archive, nullptr,
                                                     io);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return std::tuple{std::move(store), stats, dt.count()};
  };

  tsdb::StoreOptions raw_opts;
  raw_opts.block_points = 0;  // never sealed: the 16 B/point raw layout
  auto [raw_store, raw_stats, raw_s] = timed_ingest(raw_opts, false);
  auto [sealed_store, sealed_stats, sealed_s] =
      timed_ingest(tsdb::StoreOptions{}, true);

  const auto storage = sealed_store.storage_stats();
  const double bytes_per_point =
      static_cast<double>(storage.sealed_bytes) /
      static_cast<double>(storage.sealed_points);

  // The acceptance query: whole-job downsampled aggregate — one bucket
  // spanning the whole window per host, answered from block summaries on
  // the sealed store and by full scan on the raw store. Max combines
  // across the several blocks a day bucket covers, so the sealed store
  // never decodes a point.
  tsdb::Query whole;
  whole.metric = "taccstats.cpu.user";
  whole.group_by = {"host"};
  whole.downsample = window;
  whole.downsample_aggregator = tsdb::Aggregator::Max;
  whole.aggregator = tsdb::Aggregator::Sum;
  // A finer query that must decode partial buckets: the honest cost of
  // reading compressed data back.
  tsdb::Query fine = whole;
  fine.downsample = 30 * util::kMinute;

  const auto queries_per_s = [&](const tsdb::Store& store,
                                 const tsdb::Query& q) {
    // Verify equivalence once, then time repeated runs.
    const int iters = smoke ? 5 : 40;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(store.query(q));
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return iters / dt.count();
  };
  const double rollup_qps = queries_per_s(sealed_store, whole);
  const double scan_qps = queries_per_s(raw_store, whole);
  const double fine_sealed_qps = queries_per_s(sealed_store, fine);
  const double fine_raw_qps = queries_per_s(raw_store, fine);

  bench::ReproTable t;
  t.row("archive points", "-", std::to_string(sealed_stats.points),
        std::to_string(sealed_stats.series) + " series, " +
            std::to_string(nodes) + " nodes, " +
            util::format_duration(window));
  t.row("storage, raw layout", "16 B/point", "16 B/point",
        "DataPoint = 8 B time + 8 B value");
  t.row("storage, sealed blocks", "<= 4 B/point (acceptance)",
        bench::num(bytes_per_point, 3) + " B/point",
        std::to_string(storage.sealed_blocks) + " blocks, " +
            std::to_string(storage.sealed_bytes) + " B payload");
  t.row("ingest+seal throughput", "-",
        bench::num(static_cast<double>(sealed_stats.points) / sealed_s / 1e6,
                   3) +
            " Mpoints/s",
        "raw ingest " +
            bench::num(
                static_cast<double>(raw_stats.points) / raw_s / 1e6, 3) +
            " Mpoints/s");
  t.row("whole-job aggregate, sealed", ">= 3x raw (acceptance)",
        bench::num(rollup_qps, 1) + " queries/s",
        "rollup fast path: summaries only, " +
            bench::num(rollup_qps / scan_qps, 2) + "x raw (" +
            bench::num(scan_qps, 1) + " q/s)");
  t.row("30-min downsample, sealed", "-",
        bench::num(fine_sealed_qps, 1) + " queries/s",
        "partial buckets decode; raw " + bench::num(fine_raw_qps, 1) +
            " q/s");
  t.print();

  bench::BenchJson json("tsdb_interference");
  json.put("archive.nodes", static_cast<std::int64_t>(nodes));
  json.put("archive.points", sealed_stats.points);
  json.put("archive.series", sealed_stats.series);
  json.put("ingest.sealed_mpoints_per_s",
           static_cast<double>(sealed_stats.points) / sealed_s / 1e6);
  json.put("ingest.raw_mpoints_per_s",
           static_cast<double>(raw_stats.points) / raw_s / 1e6);
  json.put("storage.raw_bytes_per_point", 16.0);
  json.put("storage.sealed_bytes_per_point", bytes_per_point);
  json.put("storage.sealed_blocks", storage.sealed_blocks);
  json.put("query.whole_job_rollup_qps", rollup_qps);
  json.put("query.whole_job_scan_qps", scan_qps);
  json.put("query.whole_job_speedup", rollup_qps / scan_qps);
  json.put("query.fine_sealed_qps", fine_sealed_qps);
  json.put("query.fine_raw_qps", fine_raw_qps);
  json.put("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));
  if (!json.write()) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 bench::bench_json_path().c_str());
  }
}

// ---- Durable tiered storage: disk format, recovery, tier read path ----
// The same Fig. 2 archive, this time landed in a durable store: sealed
// blocks flushed into checksummed mmap segments with 5-min/1-h downsample
// tiers, a WAL tail left unflushed, and the store reopened crash-style.
// Gates: query results byte-identical to the in-memory sealed store
// (always), primary disk bytes/point <= 1.44, and the hour-bucket tier
// read path >= 2x the in-memory decode path at full size.
void report_persistence() {
  bench::banner(
      "Durable tiered storage: disk bytes/point, crash recovery, tier "
      "reads");
  const bool smoke = bench::bench_smoke();
  const int nodes = smoke ? 4 : 16;
  const util::SimTime window = (smoke ? 3 : 24) * util::kHour;

  simhw::ClusterConfig cc;
  cc.num_nodes = nodes;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);
  core::MonitorConfig mc;
  mc.start = kStart;
  mc.interval = util::kMinute;
  mc.online_analysis = false;
  core::ClusterMonitor monitor(cluster, mc);
  monitor.advance_to(kStart + window);
  monitor.drain();
  const auto& archive = monitor.archive();

  // The in-memory sealed store is the pre-persistence baseline: block
  // summaries only, every sub-block bucket decodes.
  tsdb::Store mem;
  pipeline::TsdbIngestOptions mem_io;
  mem_io.seal = true;
  pipeline::ingest_archive_tsdb(mem, archive, nullptr, mem_io);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "tacc_bench_tsdb_persist")
          .string();
  std::filesystem::remove_all(dir);
  tsdb::StoreOptions dur_opts;
  dur_opts.data_dir = dir;

  // Tail of unflushed puts: lives only in the WAL, so the reopen below
  // has real replay work, not just an mmap.
  const auto put_tail = [&](tsdb::Store& store) {
    for (int h = 0; h < nodes; ++h) {
      std::vector<tsdb::DataPoint> pts;
      for (int i = 0; i < 4096; ++i) {
        pts.push_back({kStart + window + i * util::kSecond,
                       static_cast<double>(i % 97) * 0.5});
      }
      store.put_batch("bench.recovery.tail",
                      {{"host", "c400-" + std::to_string(h)}}, pts);
    }
  };

  double ingest_s = 0.0;
  tsdb::DiskStats disk;  // captured at the flushed state, pre-tail
  std::size_t flushed_points = 0;
  double wal_bytes_per_point = 0.0;  // the bulk load's WAL, pre-flush
  {
    tsdb::Store durable(dur_opts);
    pipeline::TsdbIngestOptions io;
    io.seal = true;
    const auto t0 = std::chrono::steady_clock::now();
    pipeline::ingest_archive_tsdb(durable, archive, nullptr, io);
    const auto t1 = std::chrono::steady_clock::now();
    wal_bytes_per_point = static_cast<double>(durable.disk_stats().wal_bytes) /
                          static_cast<double>(durable.num_points());
    const auto t2 = std::chrono::steady_clock::now();
    durable.flush();  // segments + rotated WAL checkpoints on disk
    const std::chrono::duration<double> dt =
        (t1 - t0) + (std::chrono::steady_clock::now() - t2);
    ingest_s = dt.count();
    disk = durable.disk_stats();
    flushed_points = durable.num_points();
    put_tail(durable);
    // Crash-style destruction: no close(), the tail stays WAL-only.
  }
  put_tail(mem);

  const auto t0 = std::chrono::steady_clock::now();
  tsdb::Store reopened(dur_opts);
  const std::chrono::duration<double> open_dt =
      std::chrono::steady_clock::now() - t0;
  const auto& rec = reopened.recovery_info();

  // Byte-identity: the recovered durable store must answer every probe
  // exactly like the in-memory store holding the same puts — across the
  // tier fast path, the summary path, and full raw decode.
  const auto identical = [](const std::vector<tsdb::SeriesResult>& a,
                            const std::vector<tsdb::SeriesResult>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].group_tags != b[i].group_tags ||
          a[i].points.size() != b[i].points.size()) {
        return false;
      }
      for (std::size_t p = 0; p < a[i].points.size(); ++p) {
        if (a[i].points[p].time != b[i].points[p].time ||
            std::bit_cast<std::uint64_t>(a[i].points[p].value) !=
                std::bit_cast<std::uint64_t>(b[i].points[p].value)) {
          return false;
        }
      }
    }
    return true;
  };

  tsdb::Query hour_q;  // hour buckets: tier entries vs block decode
  hour_q.metric = "taccstats.cpu.user";
  hour_q.group_by = {"host"};
  hour_q.downsample = util::kHour;
  hour_q.downsample_aggregator = tsdb::Aggregator::Max;
  tsdb::Query raw_q;  // full decode, the strongest identity probe
  raw_q.metric = "taccstats.cpu.user";
  raw_q.group_by = {"host"};
  tsdb::Query tail_q;  // WAL-replayed points
  tail_q.metric = "bench.recovery.tail";
  tail_q.group_by = {"host"};
  std::size_t checked = 0;
  for (const auto* q : {&hour_q, &raw_q, &tail_q}) {
    if (!identical(reopened.query(*q), mem.query(*q))) {
      std::fprintf(stderr,
                   "FATAL: recovered store diverges from in-memory store "
                   "on probe %zu (metric %s)\n",
                   checked, q->metric.c_str());
      std::exit(1);
    }
    ++checked;
  }

  const auto queries_per_s = [&](const tsdb::Store& store) {
    const int iters = smoke ? 20 : 60;
    const auto q0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(store.query(hour_q));
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - q0;
    return iters / dt.count();
  };
  const double tier_qps = queries_per_s(reopened);
  const double decode_qps = queries_per_s(mem);
  const double tier_speedup = tier_qps / decode_qps;

  const double disk_bpp = static_cast<double>(disk.primary_bytes()) /
                          static_cast<double>(disk.persisted_points);
  const double tier_share = static_cast<double>(disk.tier_bytes) /
                            static_cast<double>(disk.segment_bytes);

  bench::ReproTable t;
  t.row("flushed points", "-", std::to_string(flushed_points),
        std::to_string(disk.segment_files) + " segment(s), " +
            std::to_string(nodes) + " nodes, " +
            util::format_duration(window));
  t.row("disk, primary copy", "<= 1.44 B/point (acceptance)",
        bench::num(disk_bpp, 3) + " B/point",
        "segments minus tier streams, plus WAL checkpoints");
  t.row("disk, tier streams", "-",
        bench::num(tier_share * 100.0, 1) + "% of segment bytes",
        "5-min + 1-h precomputed rollups");
  t.row("WAL after the bulk load", "-",
        bench::num(wal_bytes_per_point, 2) + " B/point",
        "one frame per shard per put, series defined once per generation");
  t.row("ingest+seal+flush", "-",
        bench::num(static_cast<double>(flushed_points) / ingest_s / 1e6, 3) +
            " Mpoints/s",
        "archive -> sealed blocks -> segment + manifest commit");
  t.row("crash reopen", "-", bench::num(open_dt.count() * 1e3, 1) + " ms",
        std::to_string(rec.segments_loaded) + " segment(s) mmapped, " +
            std::to_string(rec.points_replayed) + " WAL points replayed, " +
            std::to_string(rec.points_skipped) + " skipped");
  t.row("hour-bucket group-by, tiers", ">= 2x decode (acceptance)",
        bench::num(tier_qps, 1) + " queries/s",
        bench::num(tier_speedup, 2) + "x the in-memory decode path (" +
            bench::num(decode_qps, 1) + " q/s)");
  t.row("recovered-vs-memory identity", "byte-identical", "byte-identical",
        "tier, raw-decode and WAL-tail probes");
  t.print();

  // The numeric gates hold at the full Fig. 2 size only: smoke's short
  // series leave per-series/per-block overhead unamortized. Identity is
  // gated (above) at every size.
  if (!smoke && disk_bpp > 1.44) {
    std::fprintf(stderr, "FATAL: primary disk bytes/point %.3f > 1.44\n",
                 disk_bpp);
    std::exit(1);
  }
  if (!smoke && tier_speedup < 2.0) {
    std::fprintf(stderr, "FATAL: tier read path %.2fx < 2x decode path\n",
                 tier_speedup);
    std::exit(1);
  }

  bench::BenchJson json("tsdb_persistence");
  json.put("archive.nodes", static_cast<std::int64_t>(nodes));
  json.put("disk.primary_bytes_per_point", disk_bpp);
  json.put("disk.segment_bytes", disk.segment_bytes);
  json.put("disk.tier_bytes", disk.tier_bytes);
  json.put("disk.wal_bytes", disk.wal_bytes);
  json.put("disk.persisted_points", disk.persisted_points);
  json.put("ingest.wal_bytes_per_point", wal_bytes_per_point);
  json.put("ingest.flush_mpoints_per_s",
           static_cast<double>(flushed_points) / ingest_s / 1e6);
  json.put("recovery.open_ms", open_dt.count() * 1e3);
  json.put("recovery.points_replayed", rec.points_replayed);
  json.put("recovery.points_skipped", rec.points_skipped);
  json.put("query.hour_tier_qps", tier_qps);
  json.put("query.hour_decode_qps", decode_qps);
  json.put("query.tier_speedup", tier_speedup);
  json.put("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));
  if (!json.write()) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 bench::bench_json_path().c_str());
  }
  std::filesystem::remove_all(dir);
}

void BM_TsdbPut(benchmark::State& state) {
  tsdb::Store store;
  const tsdb::TagSet tags = {
      {"host", "c400-001"}, {"type", "mdc"}, {"event", "reqs"}};
  util::SimTime t = kStart;
  for (auto _ : state) {
    store.put("m", tags, t += util::kMinute, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbPut);

// ---- Ingest throughput: the acceptance workload ----
// The same synthetic stream for every variant: kHosts hosts, each with
// kEvents series of kPoints in-order points (the shape the archive loader
// produces). The seed-equivalent baseline ingests it with per-point put()
// into a single-shard store from one thread; the batched variant resolves
// each series to a handle once, stages per-series runs and flushes them
// with one put() per batch from N pool workers, with shard count and
// flush batch size as knobs.
constexpr int kIngestHosts = 16;
constexpr int kIngestEvents = 16;
constexpr int kIngestPoints = 512;
constexpr std::int64_t kIngestTotal =
    static_cast<std::int64_t>(kIngestHosts) * kIngestEvents * kIngestPoints;

std::string ingest_metric(int e) { return "m." + std::to_string(e); }

tsdb::TagSet ingest_tags(int h, int e) {
  return {{"host", "c400-" + std::to_string(h)},
          {"event", "ev" + std::to_string(e)}};
}

void BM_TsdbIngestSeedSerial(benchmark::State& state) {
  for (auto _ : state) {
    tsdb::Store store(tsdb::StoreOptions{1});
    for (int h = 0; h < kIngestHosts; ++h) {
      for (int e = 0; e < kIngestEvents; ++e) {
        const std::string metric = ingest_metric(e);
        const tsdb::TagSet tags = ingest_tags(h, e);
        for (int p = 0; p < kIngestPoints; ++p) {
          store.put(metric, tags, kStart + p * util::kMinute,
                    static_cast<double>(p));
        }
      }
    }
    benchmark::DoNotOptimize(store.num_points());
  }
  state.SetItemsProcessed(state.iterations() * kIngestTotal);
}
BENCHMARK(BM_TsdbIngestSeedSerial)->Unit(benchmark::kMillisecond);

void BM_TsdbIngestBatched(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  util::ThreadPool pool(threads);
  for (auto _ : state) {
    tsdb::Store store(tsdb::StoreOptions{shards});
    pool.parallel_for(kIngestHosts, [&](std::size_t h) {
      std::vector<std::vector<tsdb::DataPoint>> staged(kIngestEvents);
      std::vector<tsdb::Store::Run> runs;
      for (int e = 0; e < kIngestEvents; ++e) {
        runs.push_back({store.series(ingest_metric(e),
                                     ingest_tags(static_cast<int>(h), e)),
                        {}});
      }
      const auto flush = [&] {
        for (int e = 0; e < kIngestEvents; ++e) runs[e].points = staged[e];
        store.put(runs);
        for (auto& pts : staged) pts.clear();
      };
      std::size_t staged_points = 0;
      for (int p = 0; p < kIngestPoints; ++p) {
        for (int e = 0; e < kIngestEvents; ++e) {
          staged[e].push_back(
              {kStart + p * util::kMinute, static_cast<double>(p)});
        }
        staged_points += kIngestEvents;
        if (staged_points >= batch) {
          flush();
          staged_points = 0;
        }
      }
      flush();
    });
    benchmark::DoNotOptimize(store.num_points());
  }
  state.SetItemsProcessed(state.iterations() * kIngestTotal);
}
BENCHMARK(BM_TsdbIngestBatched)
    ->ArgNames({"threads", "shards", "batch"})
    ->Args({1, 16, 4096})
    ->Args({2, 16, 4096})
    ->Args({4, 16, 4096})
    ->Args({8, 16, 4096})
    ->Args({8, 1, 4096})   // lock-striping ablation: all workers, one lock
    ->Args({8, 16, 64})    // batch-size ablation: near-per-point flushing
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

tsdb::Store build_query_store() {
  tsdb::Store store;
  for (int h = 0; h < 32; ++h) {
    for (int i = 0; i < 288; ++i) {  // one day at 5-minute cadence
      store.put("m",
                {{"host", "c400-" + std::to_string(h)},
                 {"user", h % 4 == 0 ? "storm" : "victim"}},
                kStart + i * 5 * util::kMinute, static_cast<double>(i));
    }
  }
  return store;
}

tsdb::Query group_by_query() {
  tsdb::Query q;
  q.metric = "m";
  q.group_by = {"user"};
  q.downsample = util::kHour;
  return q;
}

void BM_TsdbGroupByQuery(benchmark::State& state) {
  const tsdb::Store store = build_query_store();
  const tsdb::Query q = group_by_query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(q));
  }
}
BENCHMARK(BM_TsdbGroupByQuery)->Unit(benchmark::kMillisecond);

void BM_TsdbGroupByQueryParallel(benchmark::State& state) {
  const tsdb::Store store = build_query_store();
  const tsdb::Query q = group_by_query();
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.query(q, pool));
  }
}
BENCHMARK(BM_TsdbGroupByQueryParallel)
    ->ArgNames({"threads"})
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void report_all() {
  report();
  report_storage();
  report_persistence();
}

}  // namespace

TS_BENCH_MAIN(report_all)

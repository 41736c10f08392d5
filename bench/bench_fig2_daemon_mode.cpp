// Figure 2 reproduction: the daemon-based operation mode. tacc_statsd on
// every node publishes self-describing chunks through the RabbitMQ-style
// broker; the consumer archives them the moment they arrive and feeds the
// online analyzer. The harness shows the real-time property (zero
// simulated-time latency, no loss on node failure for already-shipped
// records) and benchmarks the broker/consumer path under load.
#include "bench_common.hpp"

#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "core/monitor.hpp"
#include "tsdb/store.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace tacc;

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;

void report() {
  bench::banner("Fig. 2: daemon-mode transport (64 nodes, 1 simulated day)");

  simhw::ClusterConfig cc;
  cc.num_nodes = 64;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);

  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kStart;
  core::ClusterMonitor monitor(cluster, mc);

  long jobid = 9100;
  for (int g = 0; g < 12; ++g) {
    workload::JobSpec job;
    job.jobid = ++jobid;
    job.user = "user" + std::to_string(g % 5);
    job.profile = "wrf";
    job.exe = "wrf.exe";
    job.nodes = 4;
    job.wayness = 8;
    job.start_time = kStart + g * util::kHour;
    job.end_time = job.start_time + 4 * util::kHour;
    job.submit_time = job.start_time - util::kMinute;
    monitor.advance_to(job.start_time);
    monitor.job_started(job, {static_cast<std::size_t>(g * 5 % 64),
                              static_cast<std::size_t>((g * 5 + 1) % 64),
                              static_cast<std::size_t>((g * 5 + 2) % 64),
                              static_cast<std::size_t>((g * 5 + 3) % 64)});
  }
  monitor.advance_to(kStart + 15 * util::kHour);
  monitor.fail_node(63);
  monitor.advance_to(kStart + util::kDay);
  monitor.drain();

  const auto stats = monitor.daemon_stats();
  const auto broker_stats = monitor.broker().stats();
  const auto latency = monitor.archive().latency();

  bench::ReproTable t;
  t.row("central availability", "real time (as soon as available)",
        "max latency " + bench::num(latency.max(), 3) + " s (simulated)",
        "consumer archives on arrival");
  t.row("filesystem involvement", "none on the data path",
        "broker + consumer only", "the site-requested property");
  t.row("node-failure data loss", "only the not-yet-published sample",
        std::to_string(monitor.archive().total_records()) +
            " records survive the node-63 failure",
        "already-shipped records are safe");
  t.row("collections", "-", std::to_string(stats.collections), "");
  t.row("broker published/acked", "-",
        std::to_string(broker_stats.published) + "/" +
            std::to_string(broker_stats.acked),
        "at-least-once delivery");
  t.row("deployments", "Maverick 132, Comet 1984, Lonestar5 1278 nodes",
        "64-node simulation", "scale-down, same pipeline");

  // Downstream of the consumer: load the day's raw archive into the
  // OpenTSDB-style store, serial vs. fanned out over the thread pool
  // (knobs: workers=8, shards=16 default, batch_points=4096 default).
  const auto timed_load = [&](util::ThreadPool* pool) {
    tsdb::Store store;
    const auto t0 = std::chrono::steady_clock::now();
    const auto stats =
        pipeline::ingest_archive_tsdb(store, monitor.archive(), pool);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return std::pair{stats, dt.count()};
  };
  const auto [serial_stats, serial_s] = timed_load(nullptr);
  util::ThreadPool pool(8);
  const auto [par_stats, par_s] = timed_load(&pool);
  t.row("tsdb load (serial)", "-",
        bench::num(static_cast<double>(serial_stats.points) / serial_s / 1e6,
                   3) +
            " Mpoints/s",
        std::to_string(serial_stats.series) + " series, " +
            std::to_string(serial_stats.points) + " points");
  t.row("tsdb load (8 workers, batched)", "-",
        bench::num(static_cast<double>(par_stats.points) / par_s / 1e6, 3) +
            " Mpoints/s",
        "per-host staging, one put per batch");
  t.print();
}

// The same day under a hostile transport: 5% in-flight drops, 1% broker
// duplication, a one-hour broker outage, a depth-limited queue, and a
// consumer crash/restart — ending with the conservation equation
// delivered + dead_lettered (+ spooled) == published_unique and zero
// duplicate archive records.
void report_chaos() {
  bench::banner(
      "Fig. 2 under chaos: 5% drop, 1% dup, 1 h outage, consumer crash");

  simhw::ClusterConfig cc;
  cc.num_nodes = 32;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);

  auto plan = std::make_shared<util::FaultPlan>(20160104);
  util::FaultSpec publish;
  publish.drop_rate = 0.05;
  publish.duplicate_rate = 0.01;
  publish.delay_rate = 0.05;
  publish.delay_min = util::kSecond;
  publish.delay_max = 30 * util::kSecond;
  plan->set(std::string(util::kFaultBrokerPublish), publish);
  util::FaultSpec outage;
  outage.outages.push_back(
      {kStart + 6 * util::kHour, kStart + 7 * util::kHour});
  plan->set(std::string(util::kFaultDaemonPublish), outage);
  util::FaultSpec crash;
  crash.error_rate = 0.01;
  plan->set(std::string(util::kFaultConsumerCrash), crash);

  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kStart;
  mc.online_analysis = false;
  mc.fault_plan = plan;
  mc.queue_limit = 48;
  // Full dedup memory so the accounting below is exact.
  mc.consumer_options.dedup_window = 0;
  core::ClusterMonitor monitor(cluster, mc);

  monitor.advance_to(kStart + 4 * util::kHour);
  // Kill the consumer mid-day; the cluster keeps publishing into the
  // depth-limited queue (overflow dead-letters) until the restart.
  monitor.crash_consumer();
  monitor.advance_to(kStart + 5 * util::kHour);
  monitor.restart_consumer();
  monitor.advance_to(kStart + 12 * util::kHour);
  monitor.drain();

  const auto published_unique = monitor.published_unique();
  std::uint64_t delivered = 0;
  for (const auto& host : monitor.archive().hosts()) {
    delivered += monitor.archive().seen_count(host);
  }
  // Unique undelivered sequences: an injected duplicate can park two
  // copies of the same seq in the dead-letter store.
  std::set<std::pair<std::string, std::uint64_t>> dead_seqs;
  for (const auto& msg : monitor.broker().drain_dead_letters("raw_stats")) {
    if (!monitor.archive().was_seen(msg.producer, msg.seq)) {
      dead_seqs.insert({msg.producer, msg.seq});
    }
  }
  const auto dead_lettered =
      static_cast<std::uint64_t>(dead_seqs.size());
  const auto spooled = monitor.spool_depth();
  const auto r = monitor.resilience_stats();

  const bool conserved =
      delivered + dead_lettered + spooled == published_unique;
  const bool no_dups = monitor.archive().total_records() == delivered;

  bench::ReproTable t;
  t.row("published unique records", "-", std::to_string(published_unique),
        "per-host sequence numbers");
  // The delivered / dead-lettered split depends on how fast the live
  // consumer thread drains the depth-capped queue, so it varies run to
  // run; the conservation sum and every injected-fault count do not.
  t.row("delivered (archived once)", "-", std::to_string(delivered),
        "(producer, seq) dedup in the archive");
  t.row("dead-lettered (queue depth cap)", "-",
        std::to_string(dead_lettered),
        "split varies with consumer pace; sum is invariant");
  t.row("still spooled locally", "-", std::to_string(spooled),
        "replay on next broker contact");
  t.row("conservation", "delivered + dead_lettered + spooled == published",
        conserved ? "holds" : "VIOLATED", "the acceptance equation");
  t.row("duplicate archive records", "0", no_dups ? "0" : "NONZERO",
        std::to_string(r.deduped) + " duplicate deliveries absorbed");
  t.row("injected faults", "-",
        std::to_string(r.injected_drops) + " drops, " +
            std::to_string(r.injected_duplicates) + " dups, " +
            std::to_string(r.injected_delays) + " delays, " +
            std::to_string(r.injected_errors) + " errors",
        "seed 20160104, deterministic");
  t.row("recovered", "-",
        std::to_string(r.retries) + " retries, " +
            std::to_string(r.spooled) + " spooled, " +
            std::to_string(r.replayed) + " replayed, " +
            std::to_string(r.requeued) + " crash requeues",
        "backoff " + util::format_duration(
                         monitor.daemon_stats().total_backoff) +
            " (virtual)");
  t.print();
  if (!conserved || !no_dups) {
    std::fprintf(stderr,
                 "bench_fig2: resilience acceptance check FAILED\n");
    std::exit(1);
  }
}

void BM_BrokerPublishConsume(benchmark::State& state) {
  // Throughput of the broker with realistic chunk sizes (~4 KB).
  transport::Broker broker;
  broker.bind("raw", "stats.*");
  const std::string body(4096, 'x');
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    while (!stop.load()) {
      auto msg = broker.consume("raw", std::chrono::milliseconds(10));
      if (msg) broker.ack("raw", msg->delivery_tag);
    }
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(broker.publish("stats.c400-001", body));
  }
  stop.store(true);
  broker.shutdown();
  consumer.join();
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_BrokerPublishConsume)->Unit(benchmark::kMicrosecond);

void BM_ChunkParse(benchmark::State& state) {
  // The consumer-side cost of parsing one self-describing chunk.
  simhw::NodeConfig nc;
  nc.topology = simhw::Topology{2, 8, false};
  simhw::Node node(nc);
  collect::HostSampler sampler(node);
  auto log = sampler.make_log();
  log.records.push_back(sampler.sample(kStart, {1}, ""));
  const std::string chunk = log.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(collect::HostLog::parse(chunk));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_ChunkParse)->Unit(benchmark::kMicrosecond);

void BM_DaemonDayOn16Nodes(benchmark::State& state) {
  for (auto _ : state) {
    simhw::ClusterConfig cc;
    cc.num_nodes = 16;
    cc.topology = simhw::Topology{2, 4, false};
    cc.phi_fraction = 0.0;
    simhw::Cluster cluster(cc);
    core::MonitorConfig mc;
    mc.start = kStart;
    mc.online_analysis = false;
    core::ClusterMonitor monitor(cluster, mc);
    monitor.advance_to(kStart + 6 * util::kHour);
    monitor.drain();
    benchmark::DoNotOptimize(monitor.archive().total_records());
  }
}
BENCHMARK(BM_DaemonDayOn16Nodes)->Unit(benchmark::kMillisecond);

/// A 16-node, 6-hour archive built once and reloaded per iteration by the
/// archive -> tsdb fan-out benchmark below.
const transport::RawArchive& small_archive() {
  static simhw::Cluster* cluster = nullptr;
  static core::ClusterMonitor* monitor = nullptr;
  if (monitor == nullptr) {
    simhw::ClusterConfig cc;
    cc.num_nodes = 16;
    cc.topology = simhw::Topology{2, 4, false};
    cc.phi_fraction = 0.0;
    cluster = new simhw::Cluster(cc);
    core::MonitorConfig mc;
    mc.start = kStart;
    mc.online_analysis = false;
    monitor = new core::ClusterMonitor(*cluster, mc);
    monitor->advance_to(kStart + 6 * util::kHour);
    monitor->drain();
  }
  return monitor->archive();
}

void BM_TsdbArchiveLoad(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto& archive = small_archive();
  std::optional<util::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  std::int64_t points = 0;
  for (auto _ : state) {
    tsdb::Store store;
    const auto stats = pipeline::ingest_archive_tsdb(
        store, archive, pool ? &*pool : nullptr);
    points = static_cast<std::int64_t>(stats.points);
    benchmark::DoNotOptimize(store.num_points());
  }
  state.SetItemsProcessed(state.iterations() * points);
}
BENCHMARK(BM_TsdbArchiveLoad)
    ->ArgNames({"workers"})
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void report_all() {
  report();
  report_chaos();
}

}  // namespace

TS_BENCH_MAIN(report_all)

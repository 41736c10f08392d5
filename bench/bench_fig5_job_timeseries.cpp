// Figure 5 reproduction: the per-job detail plots. The paper's figure shows
// six stacked panels (Gigaflops, memory bandwidth, memory usage, Lustre
// filesystem bandwidth, internode InfiniBand/MPI traffic, CPU user
// fraction) with one line per node, for one of the storm user's WRF jobs —
// low Lustre bandwidth on a single node despite an enormous metadata
// request rate, and a poor, node-varying CPU user fraction.
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>

#include "bench_json.hpp"
#include "pipeline/metrics.hpp"
#include "portal/plots.hpp"
#include "tsdb/store.hpp"

namespace {

using namespace tacc;

workload::JobSpec storm_job() {
  workload::JobSpec job;
  job.jobid = 3151234;
  job.user = "wrfuser42";
  job.uid = 20042;
  job.profile = "wrf_mdstorm";
  job.exe = "wrf.exe";
  job.nodes = 16;
  job.wayness = 16;
  job.submit_time = util::make_time(2016, 1, 8, 11, 30);
  job.start_time = util::make_time(2016, 1, 8, 12, 0);
  job.end_time = job.start_time + 3 * util::kHour;
  job.vec_frac_eff = 0.5;
  return job;
}

pipeline::JobData storm_data() {
  pipeline::MiniSimOptions opts;
  opts.samples = 17;  // 10-minute cadence over 3 h
  return simulate_job(storm_job(), opts);
}

void report() {
  bench::banner(
      "Fig. 5: per-node time series for the metadata-storm WRF job "
      "(16 nodes, 3 h, 10-minute samples)");
  const auto data = storm_data();
  const auto series = pipeline::job_timeseries(data);
  std::fputs(portal::render_job_plots(series).c_str(), stdout);

  const auto metrics = pipeline::compute_metrics(data);
  bench::ReproTable t;
  t.row("CPU User fraction", "low for WRF jobs (~0.67 cohort average)",
        bench::num(metrics.CPU_Usage, 3), "bottom panel");
  t.row("Lustre bandwidth", "small (requests are unnecessary)",
        bench::num(metrics.LnetAveBW, 3) + " MB/s avg per node",
        "4th panel");
  t.row("metadata requests", "~563,905/s peak over the job's nodes",
        bench::num(metrics.MetaDataRate, 6) + " reqs/s",
        "the signature the plots explain");
  t.row("open/close rate", "~30,884/s", bench::num(metrics.LLiteOpenClose, 6),
        "open/close per loop iteration in the user's code");
  t.print();
}

// ---- Job panels through the compressed time-series store ----
// The same six Fig. 5 panels, but resampled densely (1-minute cadence) and
// served from the tsdb store the way the portal would serve a historical
// job: per-node series per panel, sealed into compressed blocks. Measures
// bytes/point versus the raw layout and queries/s for the whole-job
// downsampled per-node aggregate the plot needs.
void load_panels(tsdb::Store& store,
                 const std::vector<pipeline::NodeSeries>& series) {
  for (const auto& node : series) {
    const std::pair<const char*, const std::vector<double>*> panels[] = {
        {"gflops", &node.gflops},        {"mem_bw_gbps", &node.mem_bw_gbps},
        {"mem_used_gb", &node.mem_used_gb}, {"lustre_mbps", &node.lustre_mbps},
        {"ib_mpi_mbps", &node.ib_mpi_mbps}, {"cpu_user", &node.cpu_user}};
    for (const auto& [name, values] : panels) {
      std::vector<tsdb::DataPoint> points;
      for (std::size_t i = 0; i < node.times.size(); ++i) {
        // times are interval-midpoint seconds since epoch
        const auto t = static_cast<util::SimTime>(node.times[i]) *
                       util::kSecond;
        points.push_back({t, (*values)[i]});
      }
      store.put_batch(std::string("job.") + name, {{"host", node.hostname}},
                      points);
    }
  }
}

void report_tsdb() {
  bench::banner(
      "Fig. 5 panels served from the compressed time-series store");
  const bool smoke = bench::bench_smoke();
  pipeline::MiniSimOptions opts;
  opts.samples = smoke ? 61 : 181;  // 1-minute cadence over the 3 h job
  const auto data = simulate_job(storm_job(), opts);
  const auto series = pipeline::job_timeseries(data);

  tsdb::Store sealed_store;  // default block_points, then seal_all()
  load_panels(sealed_store, series);
  sealed_store.seal_all();
  tsdb::StoreOptions raw_opts;
  raw_opts.block_points = 0;  // the pre-block-tier 16 B/point layout
  tsdb::Store raw_store(raw_opts);
  load_panels(raw_store, series);

  const auto storage = sealed_store.storage_stats();
  const double bytes_per_point =
      static_cast<double>(storage.sealed_bytes) /
      static_cast<double>(storage.sealed_points);

  // What the portal asks for per panel: one value per node over the whole
  // job, downsampled in a single whole-job bucket (rollup fast path on the
  // sealed store, full scan on the raw one).
  tsdb::Query q;
  q.metric = "job.cpu_user";
  q.group_by = {"host"};
  // One whole-job bucket: buckets are epoch-aligned, and the 3 h job sits
  // inside a single day, so a 1-day bucket covers every sealed block.
  q.downsample = util::kDay;
  q.downsample_aggregator = tsdb::Aggregator::Avg;
  const auto queries_per_s = [&](const tsdb::Store& store) {
    const int iters = smoke ? 20 : 200;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(store.query(q));
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return iters / dt.count();
  };
  const double sealed_qps = queries_per_s(sealed_store);
  const double raw_qps = queries_per_s(raw_store);

  bench::ReproTable t;
  t.row("panel points in store", "-",
        std::to_string(sealed_store.num_points()) + " points",
        std::to_string(sealed_store.num_series()) + " series (6 panels x " +
            std::to_string(series.size()) + " nodes)");
  t.row("storage, sealed blocks", "-",
        bench::num(bytes_per_point, 3) + " B/point",
        "noisy float panels compress worse than counters; raw 16 B/point");
  t.row("whole-job per-node aggregate", ">= 3x raw",
        bench::num(sealed_qps, 1) + " queries/s",
        bench::num(sealed_qps / raw_qps, 2) + "x raw (" +
            bench::num(raw_qps, 1) + " q/s)");
  t.print();

  bench::BenchJson json("fig5_job_timeseries");
  json.put("panel.points", sealed_store.num_points());
  json.put("panel.series", sealed_store.num_series());
  json.put("storage.sealed_bytes_per_point", bytes_per_point);
  json.put("storage.raw_bytes_per_point", 16.0);
  json.put("query.whole_job_rollup_qps", sealed_qps);
  json.put("query.whole_job_scan_qps", raw_qps);
  json.put("query.whole_job_speedup", sealed_qps / raw_qps);
  json.put("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));
  if (!json.write()) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 bench::bench_json_path().c_str());
  }
}

void report_all() {
  report();
  report_tsdb();
}

void BM_TimeseriesExtraction(benchmark::State& state) {
  const auto data = storm_data();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline::job_timeseries(data));
  }
}
BENCHMARK(BM_TimeseriesExtraction)->Unit(benchmark::kMicrosecond);

void BM_PlotRendering(benchmark::State& state) {
  const auto series = pipeline::job_timeseries(storm_data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(portal::render_job_plots(series));
  }
}
BENCHMARK(BM_PlotRendering)->Unit(benchmark::kMicrosecond);

}  // namespace

TS_BENCH_MAIN(report_all)

// The serving phase: the portal answers a seeded open-loop query mix while
// one writer replays the second half of the day, chunk by chunk, through
// ingest_text_tsdb. Four threads: the query generator, the writer and two
// executors calling QueryEngine::execute. Every request is timed from its
// due time, and the CPU time of each call is measured on its thread and
// scaled by that thread's speed probes (see speed.hpp).
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "pipeline/ingest.hpp"
#include "portal/engine.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"

namespace tacc::perfbench {
namespace {

/// Queries per second offered by the generator: a sixth of the closed-loop
/// saturation of the two executors with the writer running (2450 queries/s
/// for this mix on a 4-vCPU x86 VM). While the VM's host takes CPU time
/// away, a third or half of saturation overloads the executors; see
/// README.md.
constexpr double kQueryRate = 400.0;
/// Live chunks per second: one call takes ~2 ms, so the writer is about
/// 40% busy.
constexpr double kChunkRate = 200.0;
/// The end-to-end tails are medians over windows of these many samples
/// (4 s of queries, 5 s of chunks): enough for a p99 in every window.
constexpr std::size_t kQueryWindow = 1600;
constexpr std::size_t kChunkWindow = 1000;
constexpr int kExecutors = 2;
/// Probe requests per kind for the cache-off identity check.
constexpr std::size_t kProbePerKind = 6;
/// The writer and the executors run the speed probe about every 250 ms:
/// the writer after every 50th chunk, an executor after the first call
/// that ends 250 ms or more after its last probe.
constexpr std::size_t kSpeedProbeChunks = 50;
constexpr auto kSpeedProbePeriod = std::chrono::milliseconds(250);

enum Kind { kSearch, kHistograms, kJobDetail, kDailyReport, kTsJob, kTsCluster,
            kKinds };
const char* const kKindNames[kKinds] = {"search",       "histograms",
                                        "job_detail",   "daily_report",
                                        "ts_job",       "ts_cluster"};
const char* const kKindSpans[kKinds] = {
    "portal.search",       "portal.histograms", "portal.job_detail",
    "portal.daily_report", "portal.ts_job",     "portal.ts_cluster"};
/// Equal shares for the eleven requests the portal serves: search,
/// histograms, job detail, daily report, each of the six Fig. 5 panels
/// (so ts_job gets six shares) and the cluster-wide timeseries.
const std::vector<double> kKindWeights = {1, 1, 1, 1, 6, 1};

/// The six Fig. 5 panels (Gigaflops, memory bandwidth, memory usage,
/// Lustre, InfiniBand, CPU user) as raw series: (metric, is a counter).
const std::pair<const char*, bool> kPanels[] = {
    {"taccstats.hsw.fp_vector", true},     {"taccstats.imc.cas_reads", true},
    {"taccstats.mem.MemUsed", false},      {"taccstats.llite.read_bytes", true},
    {"taccstats.ib.port_xmit_data", true}, {"taccstats.cpu.user", true},
};

struct Request {
  Kind kind;
  portal::QueryRequest query;
};

Request make_request(util::Rng& rng,
                     const std::vector<workload::AccountingRecord>& jobs) {
  Request r;
  r.kind = static_cast<Kind>(rng.weighted_index(kKindWeights));
  portal::QueryRequest& q = r.query;
  const auto& job = jobs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(jobs.size()) - 1))];
  switch (r.kind) {
    case kSearch:
      q.kind = portal::QueryRequest::Kind::Search;
      if (rng.bernoulli(0.5)) {
        q.query.user = job.user;
      } else {
        q.query.exe = job.exe;
      }
      break;
    case kHistograms:
      q.kind = portal::QueryRequest::Kind::Histograms;
      if (rng.bernoulli(0.5)) {
        q.query.user = job.user;
      } else {
        q.query.min_runtime_s = 600.0;
      }
      break;
    case kJobDetail:
      q.kind = portal::QueryRequest::Kind::JobDetail;
      q.jobid = job.jobid;
      break;
    case kDailyReport:
      q.kind = portal::QueryRequest::Kind::DailyReport;
      q.day = day_start();
      break;
    case kTsJob: {
      // One Fig. 5 panel of one job: its host over its run time.
      const auto& [metric, counter] = kPanels[rng.uniform_int(0, 5)];
      q.kind = portal::QueryRequest::Kind::Timeseries;
      q.ts.metric = metric;
      q.ts.rate = counter;
      q.ts.filters = {{"host", job.hostnames.front()}};
      q.ts.downsample = 5 * util::kMinute;
      q.ts.start = job.start_time;
      q.ts.end = job.end_time;
      break;
    }
    default:
      // Cluster-wide CPU use over the whole day in 10-minute buckets.
      q.kind = portal::QueryRequest::Kind::Timeseries;
      q.ts.metric = "taccstats.cpu.user";
      q.ts.rate = true;
      q.ts.downsample = 10 * util::kMinute;
      q.ts.start = day_start();
      q.ts.end = day_start() + util::kDay;
      break;
  }
  return r;
}

/// The open-loop queue between the generator and the executors.
class RequestQueue {
 public:
  void push(std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(i);
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks for the next request; false once closed and empty.
  bool pop(std::size_t& i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    i = items_.front();
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::size_t> items_;
  bool closed_ = false;
};

/// Where the before_execute hook stamps the start of service for the
/// query the calling executor thread is running.
thread_local Clock::time_point* tl_started = nullptr;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return OpenLoopTiming::ms(b - a);
}

/// CPU time the calling thread has used, in milliseconds. Time spent
/// waiting (on a lock, or for the VM's host to run the thread) is not in it.
double thread_cpu_ms() { return 1e3 * thread_cpu_s(); }

/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to the given CPUs.
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Readies the calling thread for open-loop timing: its sleeps end on
/// time (1 ns timer slack, not the default 50 us), and with a `cpu` it
/// runs on that CPU only.
void prepare_thread(std::optional<int> cpu) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (cpu) pin_to({*cpu});
}

}  // namespace

std::size_t live_chunks(double seconds) {
  return static_cast<std::size_t>(kChunkRate * seconds);
}

void split_archive(const transport::RawArchive& archive,
                   util::SimTime middle, std::size_t max_chunks,
                   LiveInput& in) {
  struct Pending {
    util::SimTime time;
    std::size_t host;
    std::size_t index;  // in the host's log
  };
  std::vector<Pending> pending;
  const auto hosts = archive.hosts();
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    archive.visit_log(hosts[h], [&](const collect::HostLog& log) {
      in.first_half.add_header(hosts[h], log.arch, log.schemas);
      for (std::size_t i = 0; i < log.records.size(); ++i) {
        const auto& rec = log.records[i];
        if (rec.time < middle) {
          in.first_half.append(hosts[h], rec, rec.time);
        } else {
          pending.push_back({rec.time, h, i});
        }
      }
    });
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     return std::tie(a.time, a.host) < std::tie(b.time, b.host);
                   });
  // An evenly spaced sample, so that the replay spans the whole second
  // half and every job in it: the heaviest hosts' records set the ingest
  // tail, and the first few hours alone would leave it to a few jobs.
  const std::size_t n = std::min(pending.size(), max_chunks);
  std::vector<Pending> sample;
  sample.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    sample.push_back(pending[k * pending.size() / n]);
  }
  pending = std::move(sample);
  in.chunks.resize(pending.size());
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    archive.visit_log(hosts[h], [&](const collect::HostLog& log) {
      const std::string header = log.serialize_header();
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (pending[k].host != h) continue;
        in.chunks[k] = header + collect::HostLog::serialize_record(
                                    log.records[pending[k].index]);
      }
    });
  }
}

Seconds run_live(const LiveInput& input, const db::Table& jobs,
                 const std::vector<workload::AccountingRecord>& accounting,
                 const Options& options, Report& report, SpeedScale& speed) {
  const std::string store_dir = options.workdir + "/live-store";
  std::filesystem::remove_all(store_dir);
  std::optional<tsdb::Store> store;
  {
    tsdb::StoreOptions so;
    so.data_dir = store_dir;
    store.emplace(so);
  }
  const auto base =
      pipeline::ingest_archive_tsdb(*store, input.first_half, nullptr, {});
  store->flush();
  report.check(store->num_points() == base.points,
               "live store holds " + std::to_string(store->num_points()) +
                   " points after the bulk load, ingest reported " +
                   std::to_string(base.points));
  for (const auto& [metric, counter] : kPanels) {
    tsdb::Query probe;
    probe.metric = metric;
    report.check(!store->query(probe).empty(),
                 std::string("no series for panel metric ") + metric);
  }

  // The seeded query mix, fixed before the clock starts.
  util::Rng rng("perfbench.queries", options.seed);
  const auto n_queries =
      static_cast<std::size_t>(kQueryRate * options.seconds);
  std::vector<Request> requests;
  requests.reserve(n_queries);
  for (std::size_t i = 0; i < n_queries; ++i) {
    requests.push_back(make_request(rng, accounting));
  }
  std::vector<OpenLoopTiming> qt(n_queries);
  std::vector<portal::QueryStatus> status(n_queries);
  std::vector<double> query_cpu_ms(n_queries);
  // The executor that ran each query, and its latest probe before the call.
  std::vector<std::pair<int, std::size_t>> query_probe(n_queries);

  portal::QueryEngineOptions eo;
  eo.workers = 1;  // requests run on the executor threads via execute()
  eo.before_execute = [] {
    if (tl_started != nullptr) *tl_started = Clock::now();
  };
  speed.probe();
  const std::size_t engine_probe = speed.last();
  const auto engine0 = Clock::now();
  portal::QueryEngine engine(jobs, &*store, eo);
  const double engine_s =
      std::chrono::duration<double>(Clock::now() - engine0).count();
  speed.probe();

  const std::size_t n_chunks = input.chunks.size();
  report.check(n_chunks == live_chunks(options.seconds),
               "only " + std::to_string(n_chunks) + " chunks to replay");
  std::vector<double> lag_ms(n_chunks);
  std::vector<double> put_ms(n_chunks);
  std::vector<double> put_cpu_ms(n_chunks);
  std::vector<std::size_t> put_probe(n_chunks);
  std::size_t failed_chunks = 0;
  std::size_t live_points = 0;
  const std::uint64_t epoch0 = store->ingest_epoch();

  SpanLog writer_log;
  std::vector<SpanLog> executor_logs(kExecutors);
  // Each thread's probes, made on that thread once it is pinned.
  std::optional<SpeedScale> writer_speed;
  std::vector<std::optional<SpeedScale>> executor_speed(kExecutors);
  const bool trace = options.trace;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const Schedule chunk_schedule(
      t0, std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(1.0 / kChunkRate)));
  const Schedule query_schedule(
      t0, std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(1.0 / kQueryRate)));

  // Each thread gets a CPU of its own when there are enough; otherwise a
  // woken executor can wait behind the generator on the CPU that woke it.
  const std::vector<int> cpus = allowed_cpus();
  const auto cpu = [&](std::size_t k) -> std::optional<int> {
    if (cpus.size() < kExecutors + 2) return std::nullopt;
    return cpus[k];
  };
  RequestQueue queue;
  std::vector<std::thread> threads;
  for (int e = 0; e < kExecutors; ++e) {
    threads.emplace_back([&, e] {
      prepare_thread(cpu(2 + e));
      SpanLog* log = trace ? &executor_logs[e] : nullptr;
      SpeedScale& probes = executor_speed[e].emplace();
      auto next_probe = Clock::now() + kSpeedProbePeriod;
      std::size_t i = 0;
      while (queue.pop(i)) {
        qt[i].started = Clock::now();
        tl_started = &qt[i].started;
        Scoped span(log, kKindSpans[requests[i].kind], i + 1);
        const double cpu0 = thread_cpu_ms();
        status[i] = engine.execute(requests[i].query).status;
        qt[i].done = Clock::now();
        query_cpu_ms[i] = thread_cpu_ms() - cpu0;
        query_probe[i] = {e, probes.last()};
        tl_started = nullptr;
        if (qt[i].done >= next_probe) {
          probes.probe();
          next_probe = Clock::now() + kSpeedProbePeriod;
        }
      }
      probes.probe();
    });
  }
  threads.emplace_back([&] {  // the writer
    prepare_thread(cpu(1));
    pipeline::TsdbIngestOptions io;
    io.seal = false;  // heads seal themselves at block_points
    SpanLog* log = trace ? &writer_log : nullptr;
    SpeedScale& probes = writer_speed.emplace();
    for (std::size_t i = 0; i < n_chunks; ++i) {
      const auto due = chunk_schedule.due(i);
      std::this_thread::sleep_until(due);
      const auto call = Clock::now();
      const double cpu0 = thread_cpu_ms();
      try {
        Scoped span(log, "pipeline.ingest_text_tsdb", i + 1);
        live_points += pipeline::ingest_text_tsdb(*store, input.chunks[i], io)
                           .points;
      } catch (const std::exception&) {
        ++failed_chunks;
      }
      const auto done = Clock::now();
      put_cpu_ms[i] = thread_cpu_ms() - cpu0;
      put_probe[i] = probes.last();
      lag_ms[i] = ms_between(due, done);
      put_ms[i] = ms_between(call, done);
      if ((i + 1) % kSpeedProbeChunks == 0) probes.probe();
    }
    probes.probe();
  });
  prepare_thread(cpu(0));
  for (std::size_t i = 0; i < n_queries; ++i) {  // the generator
    qt[i].due = query_schedule.due(i);
    std::this_thread::sleep_until(qt[i].due);
    qt[i].sent = Clock::now();
    queue.push(i);
  }
  queue.close();
  for (auto& t : threads) t.join();
  pin_to(cpus);

  // ---- metrics ----
  std::vector<double> latency;
  std::vector<double> wait;
  std::vector<double> late;
  std::vector<std::vector<double>> by_kind(kKinds);
  std::vector<std::vector<double>> service_by_kind(kKinds);
  std::vector<std::vector<double>> cpu_by_kind(kKinds);
  std::vector<std::vector<double>> scaled_cpu_by_kind(kKinds);
  std::size_t failed_queries = 0;
  for (std::size_t i = 0; i < n_queries; ++i) {
    latency.push_back(qt[i].latency_ms());
    wait.push_back(qt[i].queue_wait_ms());
    late.push_back(qt[i].late_ms());
    by_kind[requests[i].kind].push_back(qt[i].latency_ms());
    service_by_kind[requests[i].kind].push_back(qt[i].service_ms());
    cpu_by_kind[requests[i].kind].push_back(query_cpu_ms[i]);
    const auto [e, k] = query_probe[i];
    scaled_cpu_by_kind[requests[i].kind].push_back(
        query_cpu_ms[i] * executor_speed[e]->factor(k));
    if (status[i] != portal::QueryStatus::Ok) ++failed_queries;
  }
  // A request of the mix: each kind's median, weighted by the kind's share.
  // Unlike the open-loop tails, it leaves out queueing, which a few
  // milliseconds of lost CPU time inflate many times over.
  const double total_weight =
      std::accumulate(kKindWeights.begin(), kKindWeights.end(), 0.0);
  const auto mix_median = [&](const std::vector<std::vector<double>>& ms) {
    double sum = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      const auto p50 = percentile(ms[k], 50);
      report.check(p50.has_value(), std::string("too few ") + kKindNames[k] +
                                        " queries for a median");
      sum += kKindWeights[k] / total_weight * p50.value_or(0.0);
    }
    return sum;
  };
  report.put("query_cpu_ms", mix_median(scaled_cpu_by_kind), "ms");
  report.put("raw.query_cpu_ms", mix_median(cpu_by_kind), "ms");
  report.put("portal.service_ms", mix_median(service_by_kind), "ms");
  std::vector<double> scaled_put_cpu_ms(n_chunks);
  for (std::size_t i = 0; i < n_chunks; ++i) {
    scaled_put_cpu_ms[i] = put_cpu_ms[i] * writer_speed->factor(put_probe[i]);
  }
  report.put_percentile("ingest_cpu_ms", scaled_put_cpu_ms, 50);
  report.put_percentile("raw.ingest_cpu_ms", put_cpu_ms, 50);
  report.put_percentile("query_p50_ms", latency, 50);
  report.put_percentile("query_p99_ms", latency, 99, kQueryWindow);
  report.put_percentile("ingest_lag_p50_ms", lag_ms, 50);
  report.put_percentile("ingest_lag_p99_ms", lag_ms, 99, kChunkWindow);
  for (int k = 0; k < kKinds; ++k) {
    const std::string prefix = std::string("portal.") + kKindNames[k];
    report.put_percentile(prefix + ".p50_ms", by_kind[k], 50);
    report.put_percentile(prefix + ".p90_ms", by_kind[k], 90);
  }
  report.put_percentile("portal.queue_wait.p50_ms", wait, 50);
  report.put_percentile("portal.queue_wait.p99_ms", wait, 99);
  report.put_percentile("loadgen.late.p99_ms", late, 99);
  report.put_percentile("tsdb.live_put.p50_ms", put_ms, 50);
  report.put_percentile("tsdb.live_put.p99_ms", put_ms, 99);
  const auto stats = engine.stats();
  report.put("portal.cache_hit_ratio",
             double(stats.cache_hits) /
                 double(std::max<std::uint64_t>(
                     1, stats.cache_hits + stats.cache_misses)),
             "ratio");
  report.put("portal.summary_rebuilds", double(stats.summary_rebuilds),
             "count");
  report.put("portal.shed", double(stats.shed), "count");
  report.put("portal.timed_out", double(stats.timed_out), "count");
  report.put("tsdb.epoch_bumps", double(store->ingest_epoch() - epoch0),
             "count");
  report.context.push_back({"queries", std::to_string(n_queries)});
  report.context.push_back({"query_rate_per_s", std::to_string(kQueryRate)});
  report.context.push_back({"live_chunks", std::to_string(n_chunks)});

  report.attempted += n_queries + n_chunks;
  report.failed += failed_queries + failed_chunks;
  report.check(store->num_points() == base.points + live_points,
               "live store holds " + std::to_string(store->num_points()) +
                   " points, ingest reported " +
                   std::to_string(base.points + live_points));

  // Identity probe: the live engine (twice, so the second pass is served
  // from its cache) against a cache-off, one-worker engine.
  std::vector<const portal::QueryRequest*> probe;
  std::vector<std::size_t> per_kind(kKinds);
  for (const auto& r : requests) {
    if (per_kind[r.kind]++ < kProbePerKind) probe.push_back(&r.query);
  }
  portal::QueryEngineOptions ro;
  ro.cache_entries = 0;
  ro.workers = 1;
  portal::QueryEngine reference(jobs, &*store, ro);
  std::size_t mismatches = 0;
  for (const auto* q : probe) {
    const auto want = reference.execute(*q);
    for (int pass = 0; pass < 2; ++pass) {
      const auto got = engine.execute(*q);
      if (want.status != portal::QueryStatus::Ok ||
          got.status != want.status || got.payload != want.payload) {
        ++mismatches;
      }
    }
  }
  report.check(mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(2 * probe.size()) +
                   " probe results differ from the cache-off engine");

  if (trace) {
    std::ofstream out(options.workdir + "/spans-live.tsv");
    const std::int64_t origin =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t0.time_since_epoch())
            .count();
    write_spans(out, 1, writer_log.spans(), origin);
    for (int e = 0; e < kExecutors; ++e) {
      write_spans(out, 2 + e, executor_logs[e].spans(), origin);
    }
  }
  store.reset();
  std::filesystem::remove_all(store_dir);
  return {engine_s, engine_s * speed.factor(engine_probe)};
}

}  // namespace tacc::perfbench

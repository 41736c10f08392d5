// The monitored day: daemon-mode collection of a seeded job schedule,
// drain, Table I into the jobs table, and the bulk load into a durable
// tsdb. Every call into a layer is timed from here; with a span log the
// Table I loop is unrolled into its four public calls.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "bench.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/jobmap.hpp"
#include "pipeline/pipeline_metrics.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "workload/apps.hpp"

namespace tacc::perfbench {
namespace {

constexpr int kNodes = 16;
constexpr util::SimTime kInterval = util::kMinute;
constexpr int kUsers = 24;
/// Share of jobs running the metadata-storm WRF variant, so flags fire.
constexpr double kStormShare = 0.04;
/// Table I runs in blocks of this many jobs; the reported rate is the
/// median block's, which a short burst of machine noise cannot move.
constexpr std::size_t kTable1Block = 8;
/// The day is timed in slices with a speed probe between each two (see
/// speed.hpp): one simulated hour of collection, two Table I blocks, or
/// one tsdb call.
constexpr util::SimTime kSliceSteps = 60;
constexpr std::size_t kSliceBlocks = 2;

const Shape kShapes[] = {
    {"day_long_jobs", 6, 4 * util::kHour},
    {"day_short_jobs", 72, 20 * util::kMinute},
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The profiles of a day's `n` jobs, in a seeded order: the storm share
/// of wrf_mdstorm, and every catalog profile in proportion to its weight
/// (largest remainder). Fixed counts keep the day's total work the same
/// across seeds; the seed decides which job runs what, where and when.
std::vector<const workload::AppProfile*> profile_deck(std::size_t n,
                                                      util::Rng& rng) {
  const auto& catalog = workload::app_catalog();
  const auto storms = static_cast<std::size_t>(
      std::max(1.0, std::round(kStormShare * double(n))));
  std::vector<const workload::AppProfile*> deck(
      storms, &workload::wrf_mdstorm_profile());
  double total = 0.0;
  for (const auto& entry : catalog) total += entry.weight;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const double exact = double(n - storms) * catalog[i].weight / total;
    const auto whole = static_cast<std::size_t>(exact);
    deck.insert(deck.end(), whole, &catalog[i].profile);
    remainders.push_back({exact - double(whole), i});
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t j = 0; deck.size() < n; ++j) {
    deck.push_back(&catalog[remainders[j].second].profile);
  }
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(deck[i], deck[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(i)))]);
  }
  return deck;
}

workload::JobSpec draw_job(util::Rng& rng, const workload::AppProfile& profile,
                           long jobid, util::SimTime start,
                           util::SimTime length) {
  const auto user = rng.uniform_int(0, kUsers - 1);
  workload::JobSpec job;
  job.jobid = jobid;
  job.user = "user" + std::to_string(user);
  job.uid = 5000 + static_cast<int>(user);
  job.account = "TG-" + std::to_string(user % 6);
  job.jobname = profile.name;
  job.profile = profile.name;
  job.exe = profile.exe;
  job.queue = profile.queue;
  job.nodes = 1;
  job.wayness = 8;
  job.start_time = start;
  job.end_time = start + length;
  job.submit_time = start - util::from_seconds(rng.uniform(60.0, 3600.0));
  job.requested_walltime = 2 * length;
  job.io_mult = rng.lognormal_median(1.0, profile.io_sigma);
  job.cpu_jitter = rng.normal(0.0, 0.09);
  job.compute_mult = rng.lognormal_median(1.0, profile.compute_sigma);
  job.mem_mult = rng.lognormal_median(1.0, profile.mem_sigma);
  job.vec_frac_eff = std::clamp(
      profile.vec_frac + profile.vec_sigma * rng.normal(), 0.0, 0.98);
  if (rng.bernoulli(profile.fail_prob)) {
    job.status = "FAILED";
    job.fail_at_frac = rng.uniform(0.15, 0.9);
  }
  return job;
}

/// The jobs table rendered value by value (doubles with 17 digits), for
/// byte-identity checks.
std::string render_table(const db::Table& table) {
  std::string out;
  char buf[32];
  for (db::RowId id = 0; id < table.num_rows(); ++id) {
    for (const db::Value& v : table.row(id)) {
      switch (v.type()) {
        case db::ValueType::Null:
          out += "NULL";
          break;
        case db::ValueType::Int:
          out += std::to_string(v.as_int());
          break;
        case db::ValueType::Real:
          std::snprintf(buf, sizeof buf, "%.17g", v.as_real());
          out += buf;
          break;
        case db::ValueType::Text:
          out += v.as_text();
          break;
      }
      out += '\t';
    }
    out += '\n';
  }
  return out;
}

/// Sums of span durations and self times by span name.
struct SpanTotals {
  std::map<std::string, double> total_s;
  std::map<std::string, double> self_s;
  double get(const char* name) const {
    const auto it = total_s.find(name);
    return it == total_s.end() ? 0.0 : it->second;
  }
};

SpanTotals totals(const std::vector<Span>& spans) {
  SpanTotals t;
  const auto self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    t.total_s[spans[i].name] += 1e-9 * double(spans[i].end_ns - spans[i].start_ns);
    t.self_s[spans[i].name] += 1e-9 * double(self[i]);
  }
  return t;
}

}  // namespace

const Shape* find_shape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

util::SimTime day_start() { return util::make_time(2016, 1, 12); }

std::unique_ptr<Scenario> build_scenario(const Shape& shape,
                                         std::uint64_t seed) {
  auto s = std::make_unique<Scenario>();
  simhw::ClusterConfig cc;
  cc.num_nodes = kNodes;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  s->cluster = std::make_unique<simhw::Cluster>(cc);
  core::MonitorConfig mc;
  mc.interval = kInterval;
  mc.start = day_start();
  s->monitor = std::make_unique<core::ClusterMonitor>(*s->cluster, mc);
  util::Rng rng("perfbench.schedule", seed);
  const auto deck = profile_deck(
      static_cast<std::size_t>(shape.jobs_per_node) * kNodes, rng);
  for (int k = 0; k < shape.jobs_per_node; ++k) {
    for (int n = 0; n < kNodes; ++n) {
      const long jobid = 100000 + static_cast<long>(k) * kNodes + n;
      s->jobs.push_back(draw_job(rng, *deck[s->jobs.size()], jobid,
                                 day_start() + k * shape.job_length,
                                 shape.job_length));
      s->job_node.push_back(static_cast<std::size_t>(n));
    }
  }
  return s;
}

DayOutput run_day(Scenario& scenario, const Options& options, Report& report,
                  SpeedScale& speed, SpanLog* trace) {
  core::ClusterMonitor& monitor = *scenario.monitor;
  const transport::RawArchive& archive = monitor.archive();
  const Shape& shape = *options.shape;
  DayOutput out;

  // Wall time of each call, accumulated; a span per call when traced.
  const auto timed = [trace](const char* name, std::uint64_t group,
                             auto&& fn) {
    Scoped span(trace, name, group);
    const auto t0 = Clock::now();
    fn();
    return seconds_between(t0, Clock::now());
  };

  const transport::DaemonStats daemon0 = monitor.daemon_stats();
  std::size_t max_root_depth = 0;
  double advance_s = 0.0;
  double hooks_s = 0.0;
  std::size_t next_job = 0;
  std::vector<std::size_t> running;  // indices into scenario.jobs
  const auto hooks_at = [&](util::SimTime now) {
    const std::size_t first_started = next_job;
    hooks_s += timed("core.job_hooks", 0, [&] {
      for (const std::size_t j : running) {
        if (scenario.jobs[j].end_time != now) continue;
        monitor.job_ended(scenario.jobs[j].jobid);
      }
      while (next_job < scenario.jobs.size() &&
             scenario.jobs[next_job].start_time == now) {
        monitor.job_started(scenario.jobs[next_job],
                            {scenario.job_node[next_job]});
        ++next_job;
      }
    });
    std::erase_if(running, [&](std::size_t j) {
      if (scenario.jobs[j].end_time != now) return false;
      const auto& node = scenario.cluster->node(scenario.job_node[j]);
      out.accounting.push_back(
          workload::to_accounting(scenario.jobs[j], {node.hostname()}));
      return true;
    });
    for (std::size_t j = first_started; j < next_job; ++j) running.push_back(j);
  };

  speed.probe();
  const double probing0 = speed.probing_s();
  SlicedTimer day(speed);
  if (trace != nullptr) trace->open("day");
  const util::SimTime start = day_start();
  const util::SimTime steps = util::kDay / kInterval;
  hooks_at(start);
  for (util::SimTime m = 1; m <= steps; ++m) {
    const util::SimTime now = start + m * kInterval;
    advance_s += timed("core.advance_to", 0, [&] { monitor.advance_to(now); });
    if ((now - start) % shape.job_length == 0) hooks_at(now);
    if (m % kSliceSteps == 0) day.cut();
    if (trace != nullptr) {
      max_root_depth =
          std::max(max_root_depth, monitor.tier_stats().back().queue_depth);
    }
  }
  const double drain_s = timed("transport.drain", 0, [&] { monitor.drain(); });
  day.cut();
  const transport::DaemonStats daemon1 = monitor.daemon_stats();

  // Table I: extract -> metrics -> flags -> jobs table.
  std::size_t ingested = 0;
  std::size_t job_records = 0;
  std::size_t flagged = 0;
  std::vector<double> block_rates;
  db::Table* jobs = nullptr;
  // The loop of ingest_from_archive, one span per call.
  const auto traced_table1 =
      [&](const std::vector<workload::AccountingRecord>& block) {
        std::size_t done = 0;
        for (const auto& acct : block) {
          const auto group = static_cast<std::uint64_t>(acct.jobid);
          pipeline::JobData data;
          timed("pipeline.extract_job", group,
                [&] { data = pipeline::extract_job(archive, acct); });
          if (data.hosts.empty()) continue;
          pipeline::JobMetrics metrics;
          timed("pipeline.compute_metrics", group,
                [&] { metrics = pipeline::compute_metrics(data); });
          std::vector<pipeline::Flag> flags;
          timed("pipeline.evaluate_flags", group,
                [&] { flags = pipeline::evaluate_flags(acct, metrics); });
          timed("db.ingest_job", group,
                [&] { pipeline::ingest_job(*jobs, acct, metrics, flags); });
          ++done;
          flagged += flags.empty() ? 0 : 1;
          for (const auto& h : data.hosts) job_records += h.records.size();
        }
        return done;
      };
  timed("pipeline.table1", 0, [&] {
    if (trace != nullptr) {
      timed("db.create_table", 0, [&] {
        jobs = &pipeline::create_jobs_table(out.database);
      });
    }
    for (std::size_t b = 0; b < out.accounting.size(); b += kTable1Block) {
      const std::vector<workload::AccountingRecord> block(
          out.accounting.begin() + static_cast<std::ptrdiff_t>(b),
          out.accounting.begin() + static_cast<std::ptrdiff_t>(std::min(
                                       b + kTable1Block, out.accounting.size())));
      const auto t0 = Clock::now();
      if (trace == nullptr) {
        ingested += pipeline::ingest_from_archive(out.database, archive, block);
      } else {
        ingested += traced_table1(block);
      }
      block_rates.push_back(double(block.size()) /
                            seconds_between(t0, Clock::now()));
      if ((b / kTable1Block) % kSliceBlocks == kSliceBlocks - 1) day.cut();
    }
  });

  // The durable tsdb: bulk load, seal, flush.
  const std::string store_dir = options.workdir + "/day-store";
  std::filesystem::remove_all(store_dir);
  pipeline::PipelineMetrics ingest_metrics;
  pipeline::TsdbIngestOptions io;
  io.seal = false;  // sealed below as its own call (same as seal = true)
  io.metrics = trace != nullptr ? &ingest_metrics : nullptr;
  std::optional<tsdb::Store> store;
  pipeline::TsdbIngestStats loaded;
  timed("tsdb.open", 0, [&] {
    tsdb::StoreOptions so;
    so.data_dir = store_dir;
    store.emplace(so);
  });
  const double ingest_s = timed("pipeline.tsdb_ingest", 0, [&] {
    loaded = pipeline::ingest_archive_tsdb(*store, archive, nullptr, io);
  });
  day.cut();
  const double seal_s = timed("tsdb.seal", 0, [&] { store->seal_all(); });
  day.cut();
  const double flush_s = timed("tsdb.flush", 0, [&] { store->flush(); });
  day.cut();
  if (trace != nullptr) trace->close();
  const double probing_s = speed.probing_s() - probing0;

  // ---- output checks (untimed) ----
  const std::uint64_t published = monitor.published_unique();
  const std::size_t archived = archive.total_records();
  report.check(archived == published,
               "archived records " + std::to_string(archived) +
                   " != published_unique " + std::to_string(published));
  std::size_t duplicates = 0;
  for (const auto& host : archive.hosts()) {
    archive.visit_log(host, [&](const collect::HostLog& log) {
      std::set<std::tuple<util::SimTime, std::string, std::vector<long>>> seen;
      for (const auto& r : log.records) {
        if (!seen.emplace(r.time, r.mark, r.jobids).second) ++duplicates;
      }
    });
  }
  report.check(duplicates == 0,
               std::to_string(duplicates) + " duplicate archive records");
  report.check(ingested == out.accounting.size(),
               "jobs ingested " + std::to_string(ingested) + " of " +
                   std::to_string(out.accounting.size()));
  report.check(store->num_points() == loaded.points,
               "tsdb holds " + std::to_string(store->num_points()) +
                   " points, ingest reported " +
                   std::to_string(loaded.points));
  if (trace != nullptr) {
    db::Database reference;
    pipeline::ingest_from_archive(reference, archive, out.accounting);
    report.check(render_table(reference.table(pipeline::kJobsTable)) ==
                     render_table(out.database.table(pipeline::kJobsTable)),
                 "traced jobs table differs from ingest_from_archive");
  }
  const std::uint64_t lost = published > archived ? published - archived : 0;
  const std::uint64_t not_ingested = out.accounting.size() - ingested;
  report.attempted += published + out.accounting.size();
  report.failed += lost + not_ingested;

  const double live_s = advance_s + hooks_s + drain_s;
  const double tsdb_s = ingest_s + seal_s + flush_s;
  report.put("day_wall_s", day.scaled_s(), "s");
  report.put("raw.day_wall_s", day.raw_s(), "s");
  report.put("core.live_records_per_s", double(archived) / live_s, "rec/s");
  report.put("pipeline.table1_jobs_per_s", median(block_rates), "jobs/s");
  report.put("tsdb.load_mpoints_per_s", 1e-6 * double(loaded.points) / tsdb_s,
             "Mpoints/s");
  report.context.push_back({"records", std::to_string(archived)});
  report.context.push_back({"jobs", std::to_string(out.accounting.size())});
  report.context.push_back({"points", std::to_string(loaded.points)});
  report.context.push_back({"series", std::to_string(loaded.series)});

  if (trace != nullptr) {
    const SpanTotals t = totals(trace->spans());
    const double collect_s =
        daemon1.total_collect_wall_s - daemon0.total_collect_wall_s;
    const auto collections = daemon1.collections - daemon0.collections;
    const auto snap = ingest_metrics.snapshot();
    const double put_s = 1e-9 * double(snap.put_time_ns);
    const auto broker = monitor.broker().stats();
    const auto resilience = monitor.resilience_stats();
    const auto storage = store->storage_stats();
    const auto disk = store->disk_stats();

    report.put("core.advance_to.s", t.get("core.advance_to"), "s");
    report.put("core.job_hooks.s", t.get("core.job_hooks"), "s");
    report.put("collect.s", collect_s, "s");
    report.put("collect.records", double(collections), "count");
    report.put("collect.us_per_record", 1e6 * collect_s / double(collections),
               "us");
    const double publish_other_s =
        t.get("core.advance_to") + t.get("core.job_hooks") - collect_s;
    report.put("transport.publish_other.s", publish_other_s, "s");
    report.put("transport.drain.s", t.get("transport.drain"), "s");
    report.put("transport.root_queue_depth.max", double(max_root_depth),
               "count");
    report.put("transport.acked_ratio",
               double(broker.acked) / double(broker.published), "ratio");
    report.put("transport.redelivered", double(broker.redelivered), "count");
    report.put("transport.deduped", double(resilience.deduped), "count");
    report.put("pipeline.extract_job.s", t.get("pipeline.extract_job"), "s");
    // extract_job walks the whole log of every job host; the useful part
    // is the records tagged with the job.
    std::map<std::string, std::size_t> log_size;
    std::size_t host_records = 0;
    for (const auto& host : archive.hosts()) {
      archive.visit_log(host, [&](const collect::HostLog& log) {
        log_size[host] = log.records.size();
      });
    }
    for (const auto& acct : out.accounting) {
      for (const auto& h : acct.hostnames) host_records += log_size[h];
    }
    report.put("pipeline.extract_job.useful_ratio",
               double(job_records) / double(host_records), "ratio");
    report.put("pipeline.compute_metrics.s", t.get("pipeline.compute_metrics"),
               "s");
    report.put("pipeline.evaluate_flags.s", t.get("pipeline.evaluate_flags"),
               "s");
    report.put("pipeline.jobs", double(ingested), "count");
    report.put("pipeline.flagged_jobs", double(flagged), "count");
    report.put("db.ingest_job.s", t.get("db.ingest_job"), "s");
    report.put("pipeline.tsdb_ingest.s", t.get("pipeline.tsdb_ingest"), "s");
    report.put("pipeline.tsdb_ingest.build_ns", double(snap.build_time_ns),
               "ns");
    report.put("pipeline.tsdb_ingest.put_ns", double(snap.put_time_ns), "ns");
    report.put("pipeline.tsdb_ingest.batches", double(snap.batches), "count");
    report.put("tsdb.seal.s", t.get("tsdb.seal"), "s");
    report.put("tsdb.flush.s", t.get("tsdb.flush"), "s");
    report.put("tsdb.series", double(store->num_series()), "count");
    report.put("tsdb.points", double(store->num_points()), "count");
    report.put("tsdb.sealed_bytes_per_point",
               double(storage.sealed_bytes) / double(storage.sealed_points),
               "B");
    report.put("tsdb.disk_bytes_per_point",
               double(disk.primary_bytes()) / double(store->num_points()),
               "B");

    // Layer self times. Collection runs inside the core calls and store
    // puts inside the pipeline's tsdb ingest; both are split out by the
    // counters those layers expose.
    const std::map<std::string, double> layers = {
        {"collect", collect_s},
        {"transport", publish_other_s + t.get("transport.drain")},
        {"pipeline", t.get("pipeline.extract_job") +
                         t.get("pipeline.compute_metrics") +
                         t.get("pipeline.evaluate_flags") +
                         t.get("pipeline.tsdb_ingest") - put_s},
        {"db", t.get("db.create_table") + t.get("db.ingest_job")},
        {"tsdb", put_s + t.get("tsdb.open") + t.get("tsdb.seal") +
                     t.get("tsdb.flush")},
    };
    double covered = 0.0;
    for (const auto& [layer, s] : layers) {
      report.put("layer." + layer + ".self_s", s, "s");
      covered += s;
    }
    // The root span's self time is the benchmark's own loop: what no
    // layer accounts for. pipeline.table1 only wraps the four calls. The
    // speed probes between slices are not part of the day.
    const double remainder =
        t.self_s.at("day") + t.self_s.at("pipeline.table1") - probing_s;
    report.put("trace.day_wall_s", day.scaled_s(), "s");
    report.put("trace.layer_coverage", covered / day.raw_s(), "ratio");
    report.put("trace.remainder_s", remainder, "s");
  }

  store.reset();
  std::filesystem::remove_all(store_dir);
  return out;
}

}  // namespace tacc::perfbench

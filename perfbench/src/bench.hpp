// The paper-path benchmark: one monitored day driven through the public
// API (collect -> daemon transport -> archive -> Table I -> jobs table ->
// durable tsdb), then the portal serving a seeded open-loop query mix
// while the second half of the day is ingested live. See README.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "db/table.hpp"
#include "simhw/cluster.hpp"
#include "speed.hpp"
#include "trace.hpp"
#include "transport/archive.hpp"
#include "workload/jobs.hpp"

namespace tacc::perfbench {

/// A workload's job shape. Everything else (cluster, cadence, phases) is
/// shared by all workloads.
struct Shape {
  const char* name;
  int jobs_per_node;        // back-to-back single-node jobs on every node
  util::SimTime job_length;
};

/// The workloads, by name; nullptr for an unknown name.
const Shape* find_shape(const std::string& name);

struct Options {
  const Shape* shape = nullptr;
  std::uint64_t seed = 1;
  double seconds = 25.0;  // length of the timed serving phase
  bool trace = false;
  std::string workdir;  // scratch space for the durable stores
};

/// Metrics, context and check outcomes of one run.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void put(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
  /// Reports the p-th percentile of `ms` as `name`, or records a failed
  /// check when the sample count is too small for it. With a window, the
  /// median of the per-window percentiles (see windowed_percentile).
  void put_percentile(const std::string& name, const std::vector<double>& ms,
                      double p, std::size_t window = 0);
};

/// The simulated site: cluster, monitor and the day's job schedule.
struct Scenario {
  std::unique_ptr<simhw::Cluster> cluster;
  std::unique_ptr<core::ClusterMonitor> monitor;
  std::vector<workload::JobSpec> jobs;  // by start time, then node
  std::vector<std::size_t> job_node;    // parallel to jobs
};

/// First instant of the simulated day.
util::SimTime day_start();

/// Builds the cluster, the monitor and the seeded schedule.
std::unique_ptr<Scenario> build_scenario(const Shape& shape,
                                         std::uint64_t seed);

/// What the day leaves for the serving phase.
struct DayOutput {
  db::Database database;  // holds the jobs table
  std::vector<workload::AccountingRecord> accounting;
};

/// Runs the monitored day and reports the day metrics (and, with a span
/// log, the per-layer ones). `speed` holds the calling thread's probes.
DayOutput run_day(Scenario& scenario, const Options& options, Report& report,
                  SpeedScale& speed, SpanLog* trace);

/// Records of the archive split at the middle of the day: the first half
/// as an archive to bulk-load, the second as daemon-format chunks (header
/// plus one record) in replay order.
struct LiveInput {
  transport::RawArchive first_half;
  std::vector<std::string> chunks;
};

/// Chunks the serving phase replays in `seconds`.
std::size_t live_chunks(double seconds);

/// Splits `archive` at `middle`, serializing an evenly spaced sample of at
/// most `max_chunks` records of the second half.
void split_archive(const transport::RawArchive& archive,
                   util::SimTime middle, std::size_t max_chunks,
                   LiveInput& out);

/// A wall time as measured, and scaled to the reference speed.
struct Seconds {
  double raw;
  double scaled;
};

/// The serving phase: bulk-loads the first half into a fresh durable
/// store, then for options.seconds replays chunks through ingest_text_tsdb
/// while the portal serves the open-loop query mix. Returns the time spent
/// constructing the query engine, scaled by the calling thread's `speed`.
Seconds run_live(const LiveInput& input, const db::Table& jobs,
                 const std::vector<workload::AccountingRecord>& accounting,
                 const Options& options, Report& report, SpeedScale& speed);

}  // namespace tacc::perfbench

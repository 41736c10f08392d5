// perfbench: runs one workload of the paper-path benchmark and prints one
// JSON line with every metric it measured, the run's machine context and
// the outcome of its output checks.
//
//   perfbench --workload day_long_jobs --seed 1 --seconds 20 --trace 0
//             --workdir <scratch dir>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace tacc::perfbench {
namespace {

/// Building the scenario takes about a millisecond, and the same build
/// ran at 1.2 ms in some runs and 1.9 ms in others. So it is timed in
/// batches of this many builds at three points of the run, each build
/// between two speed probes, and the median of all of them is reported.
constexpr int kSetupBatch = 5;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_json(const Options& options, const Report& report) {
  std::string out = "{\"workload\": " + json_string(options.shape->name);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  out += std::string(", \"correct\": ") +
         (report.failed_checks.empty() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"failed_checks\": [";
  for (std::size_t i = 0; i < report.failed_checks.size(); ++i) {
    out += (i ? ", " : "") + json_string(report.failed_checks[i]);
  }
  out += "], \"context\": {";
  for (std::size_t i = 0; i < report.context.size(); ++i) {
    out += (i ? ", " : "") + json_string(report.context[i].first) + ": " +
           json_string(report.context[i].second);
  }
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "day_long_jobs|day_short_jobs --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.shape = find_shape(value);
      if (o.shape == nullptr) usage(("unknown workload " + value).c_str());
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--workdir") {
      o.workdir = value;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (o.shape == nullptr || o.workdir.empty() || o.seconds <= 0.0) {
    usage("--workload, --workdir and a positive --seconds are required");
  }
  return o;
}

void add_context(const Options& o, Report& report) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
  std::fprintf(stderr, "perfbench: WARNING: built without optimization; "
                       "timings are not representative\n");
#endif
  report.context = {
      {"workload", o.shape->name},
      {"seed", std::to_string(o.seed)},
      {"seconds", json_number(o.seconds)},
      {"cores", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", compiler},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"optimized", optimized ? "yes" : "no"},
      {"nodes", "16 (2x4 cores, no Phi, Lustre+IB)"},
      {"interval_s", "60"},
      {"jobs_per_node", std::to_string(o.shape->jobs_per_node)},
      {"job_length_min",
       std::to_string(o.shape->job_length / util::kMinute)},
  };
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  std::filesystem::create_directories(options.workdir);
  Report report;
  add_context(options, report);

  // The main thread's speed probes: set-up and the day.
  SpeedScale speed;
  std::vector<double> build_s;
  std::vector<double> build_raw_s;
  const auto build = [&] {
    const std::size_t k = speed.last();
    const auto t0 = Clock::now();
    auto scenario = build_scenario(*options.shape, options.seed);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    speed.probe();
    build_raw_s.push_back(s);
    build_s.push_back(s * speed.factor(k));
    return scenario;
  };
  std::unique_ptr<Scenario> scenario;
  for (int r = 0; r < kSetupBatch; ++r) {
    scenario.reset();
    scenario = build();
  }

  SpanLog day_log;
  DayOutput day = run_day(*scenario, options, report, speed,
                          options.trace ? &day_log : nullptr);
  if (options.trace) {
    std::ofstream out(options.workdir + "/spans-day.tsv");
    write_spans(out, 0, day_log.spans(),
                day_log.spans().empty() ? 0 : day_log.spans()[0].start_ns);
  }
  LiveInput live;
  split_archive(scenario->monitor->archive(), day_start() + util::kDay / 2,
                live_chunks(options.seconds), live);
  scenario.reset();  // the serving phase runs without the collectors
  speed.probe();
  for (int r = 0; r < kSetupBatch; ++r) build();
  const Seconds engine = run_live(live, day.database.table("jobs"),
                                  day.accounting, options, report, speed);
  speed.probe();
  for (int r = 0; r < kSetupBatch; ++r) build();
  // Set-up is the program's work before each timed phase: the scenario
  // and the query engine. The serving store's bulk load is left out; it
  // runs the calls that tsdb.load_mpoints_per_s already times on the day.
  report.put("setup_s", median(build_s) + engine.scaled, "s");
  report.put("raw.setup_s", median(build_raw_s) + engine.raw, "s");
  report.put("host.probe_ms", 1e3 * speed.median_probe_s(), "ms");
  report.context.push_back(
      {"probe_ms", json_number(1e3 * speed.median_probe_s())});

  report.put("peak_rss_mb", peak_rss_mib(), "MiB");
  const double fail_ratio =
      double(report.failed) / double(std::max<std::uint64_t>(1, report.attempted));
  report.put("fail_ratio", fail_ratio, "ratio");
  print_json(options, report);
  return report.failed_checks.empty() ? 0 : 1;
}

}  // namespace

void Report::put_percentile(const std::string& name,
                            const std::vector<double>& ms, double p,
                            std::size_t window) {
  const auto v = window == 0 ? percentile(ms, p)
                             : windowed_percentile(ms, window, p);
  if (v) {
    put(name, *v, "ms");
  } else {
    check(false, name + ": " + std::to_string(ms.size()) +
                     " samples are too few for this percentile");
  }
}

}  // namespace tacc::perfbench

int main(int argc, char** argv) {
  try {
    return tacc::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// Ingest hot-path benchmark: the SIMD view parser against the
// split/ostringstream implementation it replaced, parse-only and end to
// end (archive -> tsdb, text -> tsdb).
//
// Three layers are timed over the same Fig. 2-shaped host log:
//   * legacy parse — a verbatim copy of the pre-pipeline
//     HostLog::parse_records (split_lines/split_ws + per-record vectors),
//     kept here as the fixed baseline;
//   * HostLog::parse — today's wrapper over the view parser, still
//     materializing Record/RawBlock vectors;
//   * view parse — collect::RecordViewParser streaming into a counting
//     sink: the zero-materialization ceiling the ingest pipeline runs at.
//
// Two gates fail the run (exit 1) so CI bench-smoke catches regressions:
//   * the view parser — the parse stage the ingest pipeline actually runs
//     (ingest_text_tsdb, daemon-mode decode) — must be >= 3x the legacy
//     parser, and
//   * the detected SIMD mode must not lose to forced-scalar view parse.
// Both use best-of-N wall times to keep one-core CI noise out.
// HostLog::parse (which still materializes owning Records on top of the
// same view parser) is reported alongside but not gated at 3x: its cost
// is dominated by the Record/RawBlock heap layout both parsers share.
#include "bench_common.hpp"

#include <chrono>
#include <cstdlib>
#include <tuple>

#include "bench_json.hpp"
#include "collect/rawfile.hpp"
#include "collect/rawview.hpp"
#include "core/monitor.hpp"
#include "tsdb/store.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/simd_scan.hpp"
#include "util/strings.hpp"

namespace {

using namespace tacc;

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;

/// Verbatim copy of the pre-pipeline HostLog::parse_records — the
/// baseline the 3x acceptance gate measures against.
void legacy_parse_records(collect::HostLog& log, std::string_view body) {
  using collect::RawBlock;
  using collect::Record;
  using collect::Schema;
  Record* current = nullptr;
  for (const auto line : util::split_lines(body)) {
    if (line.empty()) continue;
    if (line[0] >= '0' && line[0] <= '9') {
      const auto fields = util::split_ws(line);
      if (fields.empty()) throw std::invalid_argument("empty record line");
      const auto secs = util::parse_i64(fields[0]);
      if (!secs) {
        throw std::invalid_argument("bad timestamp: " + std::string(line));
      }
      Record rec;
      rec.time = *secs * util::kSecond;
      if (fields.size() > 1 && fields[1] != "-") {
        for (const auto j : util::split(fields[1], ',')) {
          const auto id = util::parse_i64(j);
          if (!id) {
            throw std::invalid_argument("bad job id: " + std::string(line));
          }
          rec.jobids.push_back(static_cast<long>(*id));
        }
      }
      if (fields.size() > 2) rec.mark = std::string(fields[2]);
      log.records.push_back(std::move(rec));
      current = &log.records.back();
      continue;
    }
    if (current == nullptr) {
      throw std::invalid_argument("data row before any timestamp line");
    }
    const auto fields = util::split_ws(line);
    if (fields.size() < 2) {
      throw std::invalid_argument("short data row: " + std::string(line));
    }
    RawBlock block;
    block.type = std::string(fields[0]);
    block.device = fields[1] == "-" ? std::string{} : std::string(fields[1]);
    const Schema* schema = log.schema_for(block.type);
    if (schema == nullptr) {
      throw std::invalid_argument("data row with unknown type: " +
                                  block.type);
    }
    if (fields.size() - 2 != schema->size()) {
      throw std::invalid_argument("data row arity mismatch for type " +
                                  block.type);
    }
    block.values.reserve(fields.size() - 2);
    for (std::size_t i = 2; i < fields.size(); ++i) {
      const auto v = util::parse_u64(fields[i]);
      if (!v) {
        throw std::invalid_argument("bad counter value: " +
                                    std::string(fields[i]));
      }
      block.values.push_back(*v);
    }
    current->blocks.push_back(std::move(block));
  }
}

/// A Fig. 2-shaped host log as text: 16 cpus x 9 events, 2 memory nodes,
/// llite + ib, cumulative counters advancing between records.
std::string make_log_text(int records) {
  using collect::Schema;
  using collect::SchemaEntry;
  const auto events = [](std::initializer_list<const char*> keys) {
    std::vector<SchemaEntry> out;
    for (const char* k : keys) out.push_back({k, true, 64, "", 1.0});
    return out;
  };
  collect::HostLog log;
  log.hostname = "c401-101";
  log.arch = "hsw";
  log.schemas = {
      Schema("cpu", events({"user", "nice", "sys", "idle", "iowait", "irq",
                            "softirq", "steal", "guest"})),
      Schema("mem", events({"MemUsed", "FilePages", "Slab", "AnonPages"})),
      Schema("llite", events({"read_bytes", "write_bytes", "open", "close",
                              "getattr", "setattr"})),
      Schema("ib", events({"rx_bytes", "tx_bytes", "rx_packets",
                           "tx_packets"})),
  };

  util::Rng rng(2016);
  std::vector<std::uint64_t> counters(16 * 9 + 2 * 4 + 6 + 4, 0);
  for (int r = 0; r < records; ++r) {
    collect::Record rec;
    rec.time = kStart + r * 600 * util::kSecond;
    rec.jobids = {424242};
    if (r == 0) rec.mark = "begin";
    std::size_t c = 0;
    const auto advance = [&] {
      counters[c] += static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
      return counters[c++];
    };
    for (int cpu = 0; cpu < 16; ++cpu) {
      collect::RawBlock b{"cpu", std::to_string(cpu), {}};
      for (int e = 0; e < 9; ++e) b.values.push_back(advance());
      rec.blocks.push_back(std::move(b));
    }
    for (int node = 0; node < 2; ++node) {
      collect::RawBlock b{"mem", std::to_string(node), {}};
      for (int e = 0; e < 4; ++e) b.values.push_back(advance());
      rec.blocks.push_back(std::move(b));
    }
    collect::RawBlock ll{"llite", "scratch", {}};
    for (int e = 0; e < 6; ++e) ll.values.push_back(advance());
    rec.blocks.push_back(std::move(ll));
    collect::RawBlock ib{"ib", "mlx4_0", {}};
    for (int e = 0; e < 4; ++e) ib.values.push_back(advance());
    rec.blocks.push_back(std::move(ib));
    log.records.push_back(std::move(rec));
  }
  return log.serialize();
}

/// Best-of-N wall seconds for fn() (N small: the best run is the one
/// least disturbed by the CI neighbours).
template <typename Fn>
double best_of(int n, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < n; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (dt.count() < best) best = dt.count();
  }
  return best;
}

/// Sink that only tallies, so view parse measures tokenize+validate alone.
struct CountingSink {
  std::size_t records = 0;
  std::size_t values = 0;
  void record(const collect::RecordView&) { ++records; }
  void block(const collect::RawBlockView& b) { values += b.values.size(); }
};

bool g_gates_ok = true;

void gate(bool ok, const std::string& what) {
  std::printf("  gate %-44s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
  if (!ok) g_gates_ok = false;
}

void report_parse_only() {
  bench::banner("Parse hot path: legacy vs view parser (per scan mode)");
  const bool smoke = bench::bench_smoke();
  const int reps = smoke ? 5 : 3;
  const std::string text = make_log_text(smoke ? 1200 : 6000);
  const double mb = static_cast<double>(text.size()) / 1e6;

  collect::HostLog header;
  const std::size_t body_off = header.parse_header(text);
  const std::string_view body = std::string_view(text).substr(body_off);

  const double legacy_s = best_of(reps, [&] {
    collect::HostLog log = header;
    legacy_parse_records(log, body);
    benchmark::DoNotOptimize(log.records.size());
  });
  const double parse_s = best_of(reps, [&] {
    benchmark::DoNotOptimize(collect::HostLog::parse(text).records.size());
  });

  const auto view_parse_s = [&](util::ScanMode mode) {
    collect::RecordViewParser parser(mode);
    return best_of(reps, [&] {
      CountingSink sink;
      parser.parse_body(header, body, sink);
      benchmark::DoNotOptimize(sink.values);
    });
  };
  const util::ScanMode simd = util::detected_scan_mode();
  const double view_scalar_s = view_parse_s(util::ScanMode::Scalar);
  const double view_simd_s =
      simd == util::ScanMode::Scalar ? view_scalar_s : view_parse_s(simd);

  bench::ReproTable t;
  t.row("input", "-", bench::num(mb, 2) + " MB",
        std::string("scan mode: ") + std::string(util::scan_mode_name(simd)));
  t.row("legacy parse (split + vectors)", "baseline",
        bench::num(mb / legacy_s, 1) + " MB/s", "");
  t.row("HostLog::parse (view, materialized)", "-",
        bench::num(mb / parse_s, 1) + " MB/s",
        bench::num(legacy_s / parse_s, 2) + "x legacy, still materializes");
  t.row("view parse, scalar", "-", bench::num(mb / view_scalar_s, 1) + " MB/s",
        "no materialization");
  t.row("view parse, " + std::string(util::scan_mode_name(simd)),
        ">= 3x legacy, >= scalar (acceptance)",
        bench::num(mb / view_simd_s, 1) + " MB/s",
        bench::num(legacy_s / view_simd_s, 2) + "x legacy, " +
            bench::num(view_scalar_s / view_simd_s, 2) + "x scalar");
  t.print();

  gate(legacy_s / view_simd_s >= 3.0, "view parse >= 3x legacy");
  gate(view_simd_s <= view_scalar_s, "SIMD view parse >= scalar");

  bench::BenchJson json("ingest_parse");
  json.put("input.mb", mb);
  json.put("scan.mode", std::string(util::scan_mode_name(simd)));
  json.put("parse.legacy_mb_per_s", mb / legacy_s);
  json.put("parse.hostlog_mb_per_s", mb / parse_s);
  json.put("parse.speedup_vs_legacy", legacy_s / parse_s);
  json.put("parse.view_scalar_mb_per_s", mb / view_scalar_s);
  json.put("parse.view_simd_mb_per_s", mb / view_simd_s);
  json.put("parse.simd_speedup_vs_scalar", view_scalar_s / view_simd_s);
  json.write(bench::bench_json_path("BENCH_ingest.json"));
}

void report_end_to_end() {
  bench::banner("End to end: archive -> tsdb and text -> tsdb");
  const bool smoke = bench::bench_smoke();
  const int reps = smoke ? 3 : 2;

  // The Fig. 2 archive workload (same shape bench_tsdb_interference uses
  // for its storage numbers, so the Mpoints/s are comparable).
  simhw::ClusterConfig cc;
  cc.num_nodes = smoke ? 4 : 16;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);
  core::MonitorConfig mc;
  mc.start = kStart;
  mc.interval = util::kMinute;
  mc.online_analysis = false;
  core::ClusterMonitor monitor(cluster, mc);
  monitor.advance_to(kStart + (smoke ? 3 : 24) * util::kHour);
  monitor.drain();
  const auto& archive = monitor.archive();

  const auto archive_mpoints = [&](bool seal) {
    std::size_t points = 0;
    const double s = best_of(reps, [&] {
      tsdb::StoreOptions so;
      if (!seal) so.block_points = 0;
      tsdb::Store store(so);
      pipeline::TsdbIngestOptions io;
      io.seal = seal;
      points = pipeline::ingest_archive_tsdb(store, archive, nullptr, io)
                   .points;
    });
    return std::pair{static_cast<double>(points) / s / 1e6, points};
  };
  const auto [raw_mpps, points] = archive_mpoints(false);
  const double sealed_mpps = archive_mpoints(true).first;

  // Text -> tsdb: the full pipeline from raw bytes (tokenize, validate,
  // stage, put), scalar vs detected SIMD.
  const std::string text = make_log_text(smoke ? 1200 : 6000);
  const auto text_mpoints = [&](util::ScanMode mode) {
    std::size_t tpoints = 0;
    const double s = best_of(reps, [&] {
      tsdb::Store store;
      pipeline::TsdbIngestOptions io;
      io.scan = mode;
      tpoints = pipeline::ingest_text_tsdb(store, text, io).points;
    });
    return static_cast<double>(tpoints) / s / 1e6;
  };
  const util::ScanMode simd = util::detected_scan_mode();
  const double text_scalar_mpps = text_mpoints(util::ScanMode::Scalar);
  const double text_simd_mpps =
      simd == util::ScanMode::Scalar ? text_scalar_mpps : text_mpoints(simd);

  bench::ReproTable t;
  t.row("archive points", "-", std::to_string(points), "");
  t.row("archive -> tsdb, raw", "> 4.02 Mpoints/s (pre-PR)",
        bench::num(raw_mpps, 2) + " Mpoints/s", "");
  t.row("archive -> tsdb, sealed", "> 4.84 Mpoints/s (pre-PR)",
        bench::num(sealed_mpps, 2) + " Mpoints/s", "");
  t.row("text -> tsdb, scalar", "-",
        bench::num(text_scalar_mpps, 2) + " Mpoints/s", "");
  t.row("text -> tsdb, " + std::string(util::scan_mode_name(simd)), "-",
        bench::num(text_simd_mpps, 2) + " Mpoints/s", "");
  t.print();

  bench::BenchJson json("ingest_e2e");
  json.put("archive.points", points);
  json.put("e2e.raw_mpoints_per_s", raw_mpps);
  json.put("e2e.sealed_mpoints_per_s", sealed_mpps);
  json.put("text.scalar_mpoints_per_s", text_scalar_mpps);
  json.put("text.simd_mpoints_per_s", text_simd_mpps);
  json.write(bench::bench_json_path("BENCH_ingest.json"));
}

void report() {
  report_parse_only();
  report_end_to_end();
  if (!g_gates_ok) {
    std::fputs("\nbench_ingest_parse: acceptance gate failed\n", stderr);
    std::exit(1);
  }
}

}  // namespace

TS_BENCH_MAIN(report)

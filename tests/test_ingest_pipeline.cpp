// The SIMD ingest pipeline: equivalence of the view-based record parser
// against a verbatim copy of the legacy parser (results, error messages,
// and partial-progress state, across every scan mode), the view lifetimes
// a sink may rely on, zero-allocation steady state, and store-level
// determinism — archive vs text, serial vs pool, any SIMD mode:
// byte-identical query results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collect/rawfile.hpp"
#include "collect/rawview.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/pipeline_metrics.hpp"
#include "transport/archive.hpp"
#include "tsdb/store.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace tacc {
namespace {

using collect::HostLog;
using collect::RawBlock;
using collect::Record;
using collect::Schema;

// ----------------------------------------------- parser equivalence -----

/// Verbatim copy of the pre-pipeline HostLog::parse_records (the
/// split_lines + split_ws implementation) — the behavioral reference the
/// view parser must match bit for bit.
void legacy_parse_records(HostLog& log, std::string_view body) {
  using util::split_ws;
  Record* current = nullptr;
  for (const auto line : util::split_lines(body)) {
    if (line.empty()) continue;
    if (line[0] >= '0' && line[0] <= '9') {
      const auto fields = split_ws(line);
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
    const auto fields = split_ws(line);
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

/// Materializing sink mirroring HostLog::parse_records' wrapper, so the
/// test can force a specific scan mode.
struct MaterializeSink {
  std::vector<Record>& records;
  void record(const collect::RecordView& r) {
    Record rec;
    rec.time = r.time;
    rec.jobids.assign(r.jobids.begin(), r.jobids.end());
    rec.mark = std::string(r.mark);
    records.push_back(std::move(rec));
  }
  void block(const collect::RawBlockView& b) {
    RawBlock blk;
    blk.type = std::string(b.type);
    blk.device = std::string(b.device);
    blk.values.assign(b.values.begin(), b.values.end());
    records.back().blocks.push_back(std::move(blk));
  }
};

HostLog schema_fixture() {
  HostLog log;
  log.hostname = "c401-101";
  log.arch = "hsw";
  log.schemas = {
      Schema("cpu", {{"user", true, 64, "jiffies", 1.0},
                     {"sys", true, 64, "jiffies", 1.0},
                     {"idle", true, 64, "jiffies", 1.0}}),
      Schema("mem", {{"MemUsed", false, 64, "KB", 1.0}}),
      Schema("llite", {{"read_bytes", true, 64, "B", 1.0},
                       {"write_bytes", true, 64, "B", 1.0}}),
  };
  return log;
}

struct ParseOutcome {
  bool ok = false;
  std::string error;
  std::vector<Record> records;

  bool operator==(const ParseOutcome&) const = default;
};

ParseOutcome run_legacy(const HostLog& schemas, std::string_view body) {
  HostLog log = schemas;
  ParseOutcome out;
  try {
    legacy_parse_records(log, body);
    out.ok = true;
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  out.records = std::move(log.records);
  return out;
}

ParseOutcome run_view(const HostLog& schemas, std::string_view body,
                      util::ScanMode mode) {
  collect::RecordViewParser parser(mode);
  ParseOutcome out;
  MaterializeSink sink{out.records};
  try {
    parser.parse_body(schemas, body, sink);
    out.ok = true;
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  return out;
}

ParseOutcome run_wrapper(const HostLog& schemas, std::string_view body) {
  HostLog log = schemas;
  ParseOutcome out;
  try {
    log.parse_records(body);
    out.ok = true;
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  out.records = std::move(log.records);
  return out;
}

std::vector<util::ScanMode> parser_modes() {
  std::vector<util::ScanMode> modes = {util::ScanMode::Scalar};
  const util::ScanMode best = util::detected_scan_mode();
  if (best != util::ScanMode::Scalar) modes.push_back(best);
  return modes;
}

void expect_equivalent(const HostLog& schemas, const std::string& body) {
  const ParseOutcome want = run_legacy(schemas, body);
  EXPECT_EQ(run_wrapper(schemas, body), want) << "wrapper on: " << body;
  for (const util::ScanMode mode : parser_modes()) {
    EXPECT_EQ(run_view(schemas, body, mode), want)
        << util::scan_mode_name(mode) << " on: " << body;
  }
}

TEST(RecordViewParser, ErrorMessagesAndPartialStateMatchLegacy) {
  const HostLog schemas = schema_fixture();
  const std::vector<std::string> cases = {
      // valid shapes
      "1443657600 1001 begin\ncpu 0 1 2 3\ncpu 1 4 5 6\nmem - 77\n",
      "1443657600 -\nllite work 10 20\n",
      "1443657600 1001,1002\ncpu 0 1 2 3\n",
      "1443657600\n",              // bare timestamp, no job list
      "1443657600 1001 end extra ignored\n",  // trailing fields ignored
      "  \t\n1443657600 -\n",      // whitespace-only line first
      "1443657600 -\n\n\ncpu 0 1 2 3\n",  // empty lines inside
      "1443657600 -\ncpu\t0\t1 2\t3\n",   // tab delimiters
      "1443657600 -\ncpu 0 1 2 3",        // unterminated final row
      // malformed: every legacy error path
      "cpu 0 1 2 3\n",             // data row before any timestamp line
      "1443x 1001\n",              // bad timestamp
      "1443657600 12a4\n",         // bad job id
      "1443657600 1001,\n",        // trailing comma -> empty job id
      "1443657600 -\ncpu\n",       // short data row
      "1443657600 -\ngpu 0 1\n",   // unknown type
      "1443657600 -\ncpu 0 1 2\n", // arity mismatch (3 expected)
      "1443657600 -\ncpu 0 1 2 x\n",            // bad counter value
      "1443657600 -\ncpu 0 1 2 -3\n",           // negative counter
      "1443657600 -\ncpu 0 1 2 18446744073709551616\n",  // u64 overflow
      // partial progress: one good record+row, then a bad row
      "1443657600 1001\ncpu 0 1 2 3\n1443658200 1001\nmem - 5\nbad row x\n",
  };
  for (const auto& body : cases) expect_equivalent(schemas, body);
}

TEST(RecordViewParser, PropertyMatchesLegacyOnSeededRandomBodies) {
  const HostLog schemas = schema_fixture();
  util::Rng rng(2024);
  const char* types[] = {"cpu", "mem", "llite", "gpu"};  // gpu = unknown
  for (int iter = 0; iter < 250; ++iter) {
    std::string body;
    const int lines = static_cast<int>(rng.uniform_int(0, 25));
    for (int l = 0; l < lines; ++l) {
      const auto kind = rng.uniform_int(0, 9);
      if (kind < 3) {  // record line
        body += std::to_string(1443657600 + rng.uniform_int(0, 86400));
        if (rng.uniform_int(0, 3) != 0) {
          body += ' ';
          if (rng.uniform_int(0, 4) == 0) {
            body += '-';
          } else {
            const int njobs = static_cast<int>(rng.uniform_int(1, 3));
            for (int j = 0; j < njobs; ++j) {
              if (j) body += ',';
              if (rng.uniform_int(0, 19) == 0) body += 'x';  // bad id
              body += std::to_string(rng.uniform_int(1, 99999));
            }
          }
          if (rng.uniform_int(0, 2) == 0) {
            body += rng.uniform_int(0, 1) ? " begin" : " end";
          }
        }
        body += '\n';
      } else if (kind < 9) {  // data row
        const auto& type = types[rng.uniform_int(0, 3)];
        body += type;
        body += rng.uniform_int(0, 3) ? " " : "\t";
        if (rng.uniform_int(0, 4) == 0) {
          body += '-';
        } else {
          body += std::to_string(rng.uniform_int(0, 15));
        }
        // Sometimes the wrong arity on purpose.
        const int nvals = static_cast<int>(rng.uniform_int(0, 4));
        for (int v = 0; v < nvals; ++v) {
          body.append(static_cast<std::size_t>(rng.uniform_int(1, 2)), ' ');
          if (rng.uniform_int(0, 24) == 0) {
            body += "9q";  // bad value
          } else {
            body += std::to_string(
                static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)) *
                static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20)));
          }
        }
        body += '\n';
      } else {  // empty line
        body += '\n';
      }
    }
    expect_equivalent(schemas, body);
  }
}

TEST(RecordViewParser, SteadyStateParsesWithZeroHeapGrowth) {
  const HostLog schemas = schema_fixture();
  std::string body;
  for (int r = 0; r < 50; ++r) {
    body += std::to_string(1443657600 + r * 600) + " 1001,1002 begin\n";
    for (int c = 0; c < 8; ++c) {
      body += "cpu " + std::to_string(c) + " 11 22 33\n";
    }
    body += "mem - 987654\nllite work 123 456\n";
  }
  collect::RecordViewParser parser;
  std::vector<Record> sink_records;
  MaterializeSink sink{sink_records};
  const auto first = parser.parse_body(schemas, body, sink);
  EXPECT_EQ(first.records, 50u);
  EXPECT_GT(first.allocations, 0u);  // a fresh parser sizes its scratch
  // Second body of the same shape through the same parser: the token,
  // job-id and value scratch are warm — zero heap allocations from the
  // parse stage itself (the acceptance criterion PipelineMetrics reports).
  sink_records.clear();
  const auto second = parser.parse_body(schemas, body, sink);
  EXPECT_EQ(second.records, 50u);
  EXPECT_EQ(second.allocations, 0u);
  // A growth is counted where it happens, even on a body's last line:
  // here the job-id scratch grows from two ids to nine.
  const std::string wider = body + "1443700000 1,2,3,4,5,6,7,8,9\n";
  sink_records.clear();
  EXPECT_GT(parser.parse_body(schemas, wider, sink).allocations, 0u);
  sink_records.clear();
  EXPECT_EQ(parser.parse_body(schemas, wider, sink).allocations, 0u);
}

TEST(RecordViewParser, JobIdsStayValidThroughTheRecordsDataRows) {
  // RecordView::jobids is valid until the next record() call, so a sink
  // may keep the span and read it while that record's data rows arrive.
  const HostLog schemas = schema_fixture();
  const std::string body =
      "1443657600 1001,1002 begin\ncpu 0 1 2 3\nmem - 4\nllite work 5 6\n"
      "1443658200 7\ncpu 0 1 2 3\ncpu 1 4 5 6\n"
      "1443658800 -\nmem - 8\n"
      "1443659400 31,32,33\nllite work 9 10\ncpu 0 1 2 3\n";
  const std::vector<std::vector<long>> want = {
      {1001, 1002}, {7}, {}, {31, 32, 33}};
  struct KeepingSink {
    const std::vector<std::vector<long>>& want;
    std::span<const long> jobids;
    std::size_t records = 0;
    std::size_t blocks = 0;
    void record(const collect::RecordView& r) {
      jobids = r.jobids;
      ++records;
    }
    void block(const collect::RawBlockView&) {
      ++blocks;
      ASSERT_LE(records, want.size());
      EXPECT_EQ(std::vector<long>(jobids.begin(), jobids.end()),
                want[records - 1])
          << "record " << records << ", block " << blocks;
    }
  };
  for (const util::ScanMode mode : parser_modes()) {
    SCOPED_TRACE(util::scan_mode_name(mode));
    collect::RecordViewParser parser(mode);
    for (int pass = 0; pass < 2; ++pass) {  // cold, then warm scratch
      KeepingSink sink{want, {}};
      parser.parse_body(schemas, body, sink);
      EXPECT_EQ(sink.records, 4u);
      EXPECT_EQ(sink.blocks, 8u);
    }
  }
}

TEST(RecordViewParser, FullParseMatchesLegacyBytesAcrossModes) {
  // Round-trip: parse a serialized log in every mode, re-serialize, and
  // the bytes must be identical (mode can never leak into archive bytes).
  HostLog log = schema_fixture();
  util::Rng rng(7);
  for (int r = 0; r < 40; ++r) {
    Record rec;
    rec.time = (1443657600 + r * 600) * util::kSecond;
    if (r % 3) rec.jobids = {1000 + r, 2000 + r};
    if (r % 5 == 0) rec.mark = "begin";
    for (int c = 0; c < 4; ++c) {
      rec.blocks.push_back(
          {"cpu", std::to_string(c),
           {static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)),
            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)),
            static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))}});
    }
    rec.blocks.push_back({"mem", "", {static_cast<std::uint64_t>(r)}});
    log.records.push_back(std::move(rec));
  }
  const std::string text = log.serialize();
  const HostLog auto_parsed = HostLog::parse(text);
  EXPECT_EQ(auto_parsed.serialize(), text);
  HostLog header;
  const std::size_t body_off = header.parse_header(text);
  for (const util::ScanMode mode : parser_modes()) {
    const auto out = run_view(header, text.substr(body_off), mode);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.records, auto_parsed.records)
        << util::scan_mode_name(mode);
  }
}

// ----------------------------------------------- schema lookup ----------

TEST(HostLogSchemaIndex, IndexedAndFallbackLookupsAgree) {
  HostLog log = schema_fixture();
  EXPECT_EQ(log.schema_for("mem")->type(), "mem");
  EXPECT_EQ(log.schema_for("gpu"), nullptr);
  EXPECT_EQ(log.schema_for("cpu")->type(), "cpu");
  EXPECT_EQ(log.schema_for("llite")->type(), "llite");
  // A schema appended after construction is found like the others.
  log.schemas.push_back(Schema("ib", {{"rx_bytes", true, 64, "B", 1.0}}));
  EXPECT_EQ(log.schema_for("ib")->type(), "ib");
  EXPECT_EQ(log.schema_for("cpu")->type(), "cpu");
  EXPECT_EQ(log.schema_for("gpu"), nullptr);
}

// ----------------------------------------------- pipeline metrics -------

TEST(PipelineMetrics, AccumulateSnapshotResetFormat) {
  pipeline::PipelineMetrics m;
  m.add_bytes_read(100);
  m.add_bytes_read(23);
  m.add_lines(7);
  m.add_parse_time_ns(500);
  const auto s = m.snapshot();
  EXPECT_EQ(s.bytes_read, 123u);
  EXPECT_EQ(s.lines, 7u);
  EXPECT_EQ(s.parse_time_ns, 500u);
  EXPECT_EQ(s.points, 0u);
  m.reset();
  EXPECT_EQ(m.snapshot().bytes_read, 0u);
}

// ----------------------------------------------- store determinism ------

/// Exact equality of query outputs (tags, times, and bit-equal values).
void expect_identical(const std::vector<tsdb::SeriesResult>& a,
                      const std::vector<tsdb::SeriesResult>& b) {
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

HostLog populated_log(const std::string& host, int records) {
  HostLog log = schema_fixture();
  log.hostname = host;
  for (int r = 0; r < records; ++r) {
    Record rec;
    rec.time = (1443657600 + r * 600) * util::kSecond;
    rec.jobids = {4242};
    for (int c = 0; c < 4; ++c) {
      rec.blocks.push_back(
          {"cpu", std::to_string(c),
           {static_cast<std::uint64_t>(r * 100 + c),
            static_cast<std::uint64_t>(r * 10 + c),
            static_cast<std::uint64_t>(r * 3)}});
    }
    rec.blocks.push_back({"mem", "", {static_cast<std::uint64_t>(r * 1024)}});
    rec.blocks.push_back({"llite", "work",
                          {static_cast<std::uint64_t>(r * 7),
                           static_cast<std::uint64_t>(r * 11)}});
    log.records.push_back(std::move(rec));
  }
  return log;
}

transport::RawArchive& shared_archive() {
  static transport::RawArchive archive;
  static const bool filled = [] {
    for (int h = 0; h < 5; ++h) {
      const auto log = populated_log("c4-" + std::to_string(h), 40);
      archive.add_header(log.hostname, log.arch, log.schemas);
      for (const auto& rec : log.records) {
        archive.append(log.hostname, rec, rec.time);
      }
    }
    return true;
  }();
  (void)filled;
  return archive;
}

std::vector<tsdb::Query> probe_queries() {
  std::vector<tsdb::Query> qs;
  tsdb::Query by_host;
  by_host.metric = "taccstats.cpu.user";
  by_host.group_by = {"host"};
  qs.push_back(by_host);
  tsdb::Query by_device = by_host;
  by_device.metric = "taccstats.cpu.sys";
  by_device.group_by = {"device"};
  by_device.downsample = 5 * util::kMinute;
  qs.push_back(by_device);
  tsdb::Query rated;
  rated.metric = "taccstats.llite.read_bytes";
  rated.rate = true;
  rated.aggregator = tsdb::Aggregator::Avg;
  qs.push_back(rated);
  return qs;
}

TEST(IngestPipeline, StageThreadsProduceIdenticalStores) {
  auto& archive = shared_archive();
  pipeline::TsdbIngestOptions base;
  base.batch_points = 256;  // force several mid-host flushes

  tsdb::Store inline_store(tsdb::StoreOptions{8});
  const auto inline_stats =
      pipeline::ingest_archive_tsdb(inline_store, archive, nullptr, base);
  ASSERT_EQ(inline_stats.hosts, 5u);
  ASSERT_GT(inline_stats.points, 0u);

  util::ThreadPool pool(4);
  tsdb::Store pooled(tsdb::StoreOptions{8});
  const auto pooled_stats =
      pipeline::ingest_archive_tsdb(pooled, archive, &pool, base);
  EXPECT_EQ(pooled_stats.series, inline_stats.series);
  EXPECT_EQ(pooled_stats.points, inline_stats.points);
  EXPECT_EQ(pooled.num_series(), inline_store.num_series());
  EXPECT_EQ(pooled.num_points(), inline_store.num_points());
  for (const auto& q : probe_queries()) {
    const auto a = inline_store.query(q);
    ASSERT_FALSE(a.empty());
    expect_identical(a, pooled.query(q));
  }
}

TEST(IngestPipeline, TextIngestMatchesArchiveIngestAcrossModes) {
  const auto log = populated_log("c4-0", 40);
  transport::RawArchive archive;
  archive.add_header(log.hostname, log.arch, log.schemas);
  for (const auto& rec : log.records) {
    archive.append(log.hostname, rec, rec.time);
  }
  tsdb::Store from_archive(tsdb::StoreOptions{4});
  const auto archive_stats =
      pipeline::ingest_archive_tsdb(from_archive, archive, nullptr);

  const std::string text = log.serialize();
  std::vector<util::ScanMode> modes = {util::ScanMode::Scalar,
                                       util::ScanMode::Auto};
  if (util::detected_scan_mode() == util::ScanMode::Avx2) {
    modes.push_back(util::ScanMode::Sse2);
  }
  for (const util::ScanMode mode : modes) {
    pipeline::TsdbIngestOptions opts;
    opts.scan = mode;
    opts.batch_points = 200;
    tsdb::Store store(tsdb::StoreOptions{4});
    const auto stats = pipeline::ingest_text_tsdb(store, text, opts);
    EXPECT_EQ(stats.hosts, 1u);
    EXPECT_EQ(stats.series, archive_stats.series);
    EXPECT_EQ(stats.points, archive_stats.points);
    EXPECT_EQ(store.num_points(), from_archive.num_points());
    for (const auto& q : probe_queries()) {
      const auto a = from_archive.query(q);
      ASSERT_FALSE(a.empty());
      expect_identical(a, store.query(q));
    }
  }
}

TEST(IngestPipeline, TextIngestReportsZeroSteadyStateAllocations) {
  const auto log = populated_log("c4-9", 30);
  const std::string text = log.serialize();
  pipeline::PipelineMetrics metrics;
  pipeline::TsdbIngestOptions opts;
  opts.metrics = &metrics;
  {
    tsdb::Store warmup(tsdb::StoreOptions{2});
    pipeline::ingest_text_tsdb(warmup, text, opts);
  }
  // The text parser in ingest_text_tsdb is per-call, so its first records
  // size its scratch vectors; the rest of the call reuses them.
  const auto first = metrics.snapshot();
  EXPECT_GT(first.records, 0u);
  EXPECT_GT(first.points, 0u);
  metrics.reset();
  // A second ingest through a persistent parser is the true steady state:
  // proven at the parser level in SteadyStateParsesWithZeroHeapGrowth;
  // here we pin the pipeline-level report: lines/bytes/records accounted.
  tsdb::Store store(tsdb::StoreOptions{2});
  const auto stats = pipeline::ingest_text_tsdb(store, text, opts);
  const auto s = metrics.snapshot();
  EXPECT_EQ(s.bytes_read, text.size() - text.find("1443657600"));
  EXPECT_EQ(s.records, 30u);
  EXPECT_EQ(s.points, stats.points);
  EXPECT_GT(s.lines, 30u);
  // Scratch growth follows the widest line, not the record count: three
  // records of the same shape report the same allocations as thirty.
  metrics.reset();
  tsdb::Store few(tsdb::StoreOptions{2});
  pipeline::ingest_text_tsdb(few, populated_log("c4-9", 3).serialize(), opts);
  EXPECT_EQ(metrics.snapshot().allocations, s.allocations);
}

TEST(IngestPipeline, TextIngestPropagatesParseErrors) {
  tsdb::Store store(tsdb::StoreOptions{2});
  EXPECT_THROW(pipeline::ingest_text_tsdb(store, "no header"),
               std::invalid_argument);
  const std::string bad =
      "$tacc_stats 2.1\n$hostname h\n$arch x\n!cpu user,E\n"
      "1443657600 -\ncpu 0 1\ncpu 0 oops\n";
  tsdb::Store store2(tsdb::StoreOptions{2});
  try {
    pipeline::ingest_text_tsdb(store2, bad);
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad counter value: oops");
  }

  // Partial progress: 30 good records of 4 points each, then a bad one.
  // Batches flushed before the bad line stay in the store; the points
  // staged since the last flush are dropped.
  std::string partial =
      "$tacc_stats 2.1\n$hostname h\n$arch x\n!cpu user,E sys,E\n";
  for (int r = 0; r < 30; ++r) {
    partial += std::to_string(1443657600 + r * 600) + " -\n";
    for (int c = 0; c < 2; ++c) {
      partial += "cpu " + std::to_string(c) + " " + std::to_string(r) + " " +
                 std::to_string(r + c) + "\n";
    }
  }
  partial += "1443675600 -\ncpu 0 1 oops\n";
  // batch_points = 16 flushes at the starts of records 4, 8, ..., 28:
  // records 0-27 (112 points) are stored, records 28-29 (8 points) are
  // dropped. The default threshold never flushes before the error.
  // A series exists only once a point of it is stored: the dropped points
  // create none.
  const std::size_t default_batch = pipeline::TsdbIngestOptions{}.batch_points;
  for (const auto& [batch, want] :
       {std::pair<std::size_t, std::size_t>{16, 112}, {default_batch, 0}}) {
    pipeline::TsdbIngestOptions opts;
    opts.batch_points = batch;
    tsdb::Store store3;
    try {
      pipeline::ingest_text_tsdb(store3, partial, opts);
      FAIL() << "expected parse error, batch_points " << batch;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "bad counter value: oops");
    }
    EXPECT_EQ(store3.num_points(), want) << "batch_points " << batch;
    EXPECT_EQ(store3.num_series(), want == 0 ? 0u : 4u)
        << "batch_points " << batch;
  }
}

TEST(IngestPipeline, HandlePutsMatchStringPutsByteForByte) {
  // The sink (series resolved once, one put by handle per batch) against
  // one string put_batch per point, both into durable stores: the same
  // query bytes and the same segment file.
  const auto& archive = shared_archive();
  const auto fresh_dir = [](const std::string& name) {
    const std::filesystem::path d =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(d);
    return d.string();
  };
  const std::string sink_dir = fresh_dir("ingest_handles");
  const std::string strings_dir = fresh_dir("ingest_strings");
  tsdb::StoreOptions o;
  o.shards = 4;
  o.block_points = 16;
  o.data_dir = sink_dir;
  tsdb::Store via_sink(o);
  pipeline::TsdbIngestOptions io;
  io.batch_points = 64;
  pipeline::ingest_archive_tsdb(via_sink, archive, nullptr, io);

  o.data_dir = strings_dir;
  tsdb::Store via_strings(o);
  for (const auto& host : archive.hosts()) {
    archive.visit_log(host, [&](const HostLog& log) {
      for (const auto& rec : log.records) {
        for (const auto& block : rec.blocks) {
          const Schema* schema = log.schema_for(block.type);
          if (schema == nullptr) continue;  // the sink skips these too
          const std::size_t n = std::min(block.values.size(), schema->size());
          for (std::size_t i = 0; i < n; ++i) {
            const std::string& event = schema->entry(i).key;
            const tsdb::DataPoint p{rec.time,
                                    static_cast<double>(block.values[i])};
            via_strings.put_batch("taccstats." + block.type + "." + event,
                                  {{"host", host},
                                   {"type", block.type},
                                   {"device", block.device},
                                   {"event", event}},
                                  {&p, 1});
          }
        }
      }
    });
  }
  via_strings.seal_all();

  EXPECT_EQ(via_strings.num_series(), via_sink.num_series());
  EXPECT_EQ(via_strings.num_points(), via_sink.num_points());
  for (const auto& q : probe_queries()) {
    const auto a = via_sink.query(q);
    ASSERT_FALSE(a.empty());
    expect_identical(a, via_strings.query(q));
  }
  via_sink.flush();
  via_strings.flush();
  ASSERT_EQ(via_sink.disk_stats().segment_files, 1u);
  ASSERT_EQ(via_strings.disk_stats().segment_files, 1u);
  EXPECT_EQ(util::read_file(sink_dir + "/seg-000001.blk"),
            util::read_file(strings_dir + "/seg-000001.blk"));
}

}  // namespace
}  // namespace tacc

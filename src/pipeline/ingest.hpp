// Ingests the central archive into the two analysis stores:
//   * relational (the paper's PostgreSQL step): one row per job in the
//     "jobs" table, with the metadata columns the portal's job list shows
//     and one Real column per Table I metric. Flags are stored as a
//     comma-joined text column.
//   * time-series (the paper's OpenTSDB step, section VI-A): every raw
//     counter of every host, tagged by (host, device type, device name,
//     event name), batched per series. The archive load and the raw-text
//     load share one per-host sink; the archive load can fan hosts out
//     across a thread pool.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "db/table.hpp"
#include "pipeline/flags.hpp"
#include "pipeline/metrics.hpp"
#include "transport/archive.hpp"
#include "tsdb/store.hpp"
#include "util/simd_scan.hpp"
#include "util/thread_pool.hpp"
#include "workload/jobs.hpp"

namespace tacc::pipeline {

/// Name of the jobs table.
inline constexpr const char* kJobsTable = "jobs";

/// Creates the jobs table (metadata + metric columns) with indexes on
/// exe, user, and queue. Throws if it already exists.
db::Table& create_jobs_table(db::Database& database);

/// Inserts one job row. NaN metrics become SQL NULLs.
db::RowId ingest_job(db::Table& jobs, const workload::AccountingRecord& acct,
                     const JobMetrics& metrics,
                     const std::vector<Flag>& flags);

/// Convenience: extract + compute + flag + ingest a batch of jobs from the
/// central archive. Returns the number of jobs with at least one record.
/// NOT thread-safe: call from one thread per (database, archive) pair.
std::size_t ingest_from_archive(
    db::Database& database, const transport::RawArchive& archive,
    const std::vector<workload::AccountingRecord>& accounting);

class PipelineMetrics;  // pipeline/pipeline_metrics.hpp

/// Tuning knobs for the archive -> time-series load.
struct TsdbIngestOptions {
  /// Points staged per host before a bulk flush via one Store::put.
  /// Bigger batches amortize shard locking and WAL frames; smaller ones
  /// bound staging memory. Default: 4096.
  std::size_t batch_points = 4096;
  /// Seal every series after the load (Store::seal_all), compressing the
  /// archive into immutable blocks and enabling summary skips and rollup
  /// fast paths on the read side. Disable only when more appends to the
  /// same series follow immediately (sealing then just cuts blocks short).
  bool seal = true;
  /// SIMD mode for text-ingest tokenization (ingest_text_tsdb); Auto
  /// picks the widest kernel the CPU supports.
  util::ScanMode scan = util::ScanMode::Auto;
  /// Per-stage counters (pipeline/pipeline_metrics.hpp); nullptr = none.
  PipelineMetrics* metrics = nullptr;
};

struct TsdbIngestStats {
  std::size_t hosts = 0;
  std::size_t series = 0;
  std::size_t points = 0;
};

/// Loads every host's raw counter stream from the archive into the
/// time-series store: one series per (schema type, device, event) per
/// host — the paper's OpenTSDB tag tuple — with the metric named
/// taccstats.<type>.<event> and tags {host, type, device, event}. Values of
/// the same event across a host's devices stay separate series, so any
/// tag subset can still be aggregated at query time.
///
/// When `pool` is non-null, hosts are fanned out across its workers; each
/// worker stages points in a local per-series buffer, resolves each series
/// to a Store::Handle at its first put, and flushes with one Store::put per
/// batch, so workers never contend on a series (series are keyed by host)
/// and touch each shard lock only on flush.
///
/// Thread-safety: safe to call while other threads put() into the same
/// store; the archive is only read (RawArchive is internally locked). The
/// result is deterministic: serial (pool == nullptr) and parallel runs
/// produce stores with byte-identical query results.
TsdbIngestStats ingest_archive_tsdb(tsdb::Store& store,
                                    const transport::RawArchive& archive,
                                    util::ThreadPool* pool = nullptr,
                                    const TsdbIngestOptions& options = {});

/// Loads one serialized host log (header + records, HostLog::serialize
/// format) straight into the time-series store without materializing
/// Records: the body streams through collect::RecordViewParser (SIMD
/// tokenization, values in the parser's reused scratch) directly into
/// per-series staging. Series naming/tagging matches
/// ingest_archive_tsdb, so a store loaded from text and one loaded from the
/// equivalent archived log have byte-identical query results — as do runs
/// with any scan mode.
///
/// Throws std::invalid_argument on malformed input (same messages as
/// HostLog::parse). Points flushed before the bad line are already in the
/// store; points staged since the last batch_points flush (the stage only
/// flushes at record boundaries once the threshold is crossed) are
/// dropped, not stored, and create no series.
TsdbIngestStats ingest_text_tsdb(tsdb::Store& store, std::string_view text,
                                 const TsdbIngestOptions& options = {});

}  // namespace tacc::pipeline

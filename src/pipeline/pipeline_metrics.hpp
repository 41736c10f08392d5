// Per-stage counters for the ingest pipeline (read -> parse -> batch-build
// -> tsdb put), collected only when a caller passes a PipelineMetrics*
// through TsdbIngestOptions::metrics, so the hot path pays nothing by
// default.
//
// Counters are relaxed atomics because the pool fan-out of
// ingest_archive_tsdb has several workers adding to one sink; each counter
// is a monotonic sum, so relaxed ordering is exact for the final snapshot
// taken after join. The repo linter's TS001 allowlist records every atomic
// member with this reason.
#pragma once

#include <atomic>
#include <cstdint>

namespace tacc::pipeline {

/// Plain-value copy of the counters, safe to pass around and diff.
struct PipelineMetricsSnapshot {
  std::uint64_t bytes_read = 0;      // raw text bytes scanned
  std::uint64_t lines = 0;           // lines tokenized (records + data rows)
  std::uint64_t records = 0;         // timestamp records parsed
  std::uint64_t points = 0;          // tsdb points emitted
  std::uint64_t batches = 0;         // Store::put flushes
  std::uint64_t parse_time_ns = 0;   // tokenize + decode stage time
  std::uint64_t build_time_ns = 0;   // batch staging time
  std::uint64_t put_time_ns = 0;     // Store::series + Store::put time
  std::uint64_t allocations = 0;     // parse scratch growths (0 = steady state)
};

/// Thread-safe accumulator; add to it from any stage, snapshot after join.
class PipelineMetrics {
 public:
  void add_bytes_read(std::uint64_t n) noexcept { add(bytes_read_, n); }
  void add_lines(std::uint64_t n) noexcept { add(lines_, n); }
  void add_records(std::uint64_t n) noexcept { add(records_, n); }
  void add_points(std::uint64_t n) noexcept { add(points_, n); }
  void add_batches(std::uint64_t n) noexcept { add(batches_, n); }
  void add_parse_time_ns(std::uint64_t n) noexcept { add(parse_time_ns_, n); }
  void add_build_time_ns(std::uint64_t n) noexcept { add(build_time_ns_, n); }
  void add_put_time_ns(std::uint64_t n) noexcept { add(put_time_ns_, n); }
  void add_allocations(std::uint64_t n) noexcept { add(allocations_, n); }

  PipelineMetricsSnapshot snapshot() const noexcept;

  /// Zeroes every counter.
  void reset() noexcept;

 private:
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    if (n != 0) c.fetch_add(n, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> lines_{0};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> points_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> parse_time_ns_{0};
  std::atomic<std::uint64_t> build_time_ns_{0};
  std::atomic<std::uint64_t> put_time_ns_{0};
  std::atomic<std::uint64_t> allocations_{0};
};

}  // namespace tacc::pipeline

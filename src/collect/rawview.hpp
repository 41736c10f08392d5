// Zero-copy view parser for raw stats record bodies, and the record sink
// interface it shares with the archive's replay.
//
// Owning Records (strings + vectors, several heap allocations per line)
// are the public record type but far too slow as a decode loop.
// RecordViewParser instead walks the body with util::SimdScanner and emits
// *views*: string_views into the input buffer plus spans over two reusable
// scratch vectors for the numeric payloads (the record line's job ids and
// the data row's counter values). HostLog::parse_records runs it with a
// MaterializeSink; the tsdb text load runs it with a sink that stages
// points directly. A parser instance reused across records/bodies performs
// zero heap allocations in steady state: the token, job-id and value
// scratch vectors keep their capacity.
//
// The sink receives one call per line, in input order:
//
//   sink.record(const RecordView&)  — a digit-led timestamp line
//   sink.block(const RawBlockView&) — a "type device v0 v1 ..." data row
//                                     belonging to the last record
//
// transport::RawArchive::replay drives the same two calls from its stored
// columns, through the RecordSink base below, plus header() before the
// first record and keep(), a filter the parser does not call.
//
// Lifetime: RecordView::jobids is valid until the next record() call,
// RawBlockView::values until the next sink call, and the string views
// until parse_body (or the replay) returns. Sinks that need longer-lived
// data must copy.
//
// Error semantics are bit-for-bit those of the legacy parser: the same
// std::invalid_argument messages, thrown at the same input positions, and
// the same partial-progress contract (everything before the bad line has
// already been delivered to the sink; a record line is delivered only if
// it parsed completely). A property test pins this equivalence against
// the materializing wrapper on seeded random and mutated inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "collect/rawfile.hpp"
#include "util/clock.hpp"
#include "util/simd_scan.hpp"
#include "util/strings.hpp"

namespace tacc::collect {

/// View equivalent of Record (minus blocks, which stream separately).
struct RecordView {
  util::SimTime time = 0;
  std::span<const long> jobids;  // parser scratch; empty = no job
  std::string_view mark;         // into the input buffer
};

/// View equivalent of RawBlock, with the schema already resolved.
struct RawBlockView {
  std::string_view type;    // into the input buffer
  std::string_view device;  // empty if the row said "-"
  /// Never null from the parser, which rejects such a row. Null from an
  /// archive replay when the host header has no schema for `type`.
  const Schema* schema = nullptr;
  std::span<const std::uint64_t> values;  // parser scratch, schema arity
};

/// A sink of the record stream. RecordViewParser calls record() and
/// block() on the sink's own type; the archive's replay calls all four
/// through this base. A sink marked final is called without virtual
/// dispatch by the parser.
class RecordSink {
 public:
  /// The host header (identity and schemas; no records), once, before the
  /// first record of a replay.
  virtual void header(const HostLog& log) { (void)log; }
  /// Whether a replay delivers this record: false skips its record() call
  /// and its blocks.
  virtual bool keep(const RecordView& r) {
    (void)r;
    return true;
  }
  virtual void record(const RecordView& r) = 0;
  virtual void block(const RawBlockView& b) = 0;

 protected:
  ~RecordSink() = default;
};

/// Appends owning Records to `log.records`; header() copies the header
/// into `log`. A record lands in `records` before its blocks, so a parse
/// that throws mid-record leaves the rows parsed so far attached to it.
class MaterializeSink : public RecordSink {
 public:
  explicit MaterializeSink(HostLog& log) : log_(log) {}

  void header(const HostLog& log) override;
  void record(const RecordView& r) override;
  void block(const RawBlockView& b) override;

 private:
  HostLog& log_;
  // Records in one log share a shape, so the previous record's block
  // count is a near-exact reserve hint for the next.
  std::size_t block_hint_ = 0;
};

namespace detail {

/// util::parse_u64 with a fast path for the dominant case: at most 19
/// plain digits, which cannot overflow a u64. Anything else — empty, a
/// sign, a non-digit, 20+ digits — takes the from_chars path, so the
/// accept/reject behavior is exactly parse_u64's.
inline std::optional<std::uint64_t> parse_counter(
    std::string_view s) noexcept {
  if (s.empty() || s.size() > 19) return util::parse_u64(s);
  std::uint64_t v = 0;
  for (const char c : s) {
    const unsigned d = static_cast<unsigned>(c) - '0';
    if (d > 9) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

}  // namespace detail

class RecordViewParser {
 public:
  /// What one parse_body call did, for PipelineMetrics accounting.
  /// allocations is zero in steady state (second and later bodies of
  /// similar shape through the same parser).
  struct BodyStats {
    std::uint64_t bytes = 0;        // body bytes scanned
    std::uint64_t lines = 0;        // non-empty lines
    std::uint64_t records = 0;      // record lines delivered
    std::uint64_t allocations = 0;  // scratch-vector growths
  };

  /// `scan` is the line scanner's classify kernel (Auto = the widest the
  /// CPU supports).
  explicit RecordViewParser(util::ScanMode scan = util::ScanMode::Auto)
      : scan_(scan) {}

  /// Streams one body (no header lines) into `sink`. Throws
  /// std::invalid_argument on malformed input, with everything before the
  /// bad line already delivered. `log` supplies the schemas.
  template <typename Sink>
  BodyStats parse_body(const HostLog& log, std::string_view body,
                       Sink&& sink) {
    BodyStats stats;
    stats.bytes = body.size();
    util::SimdScanner scanner(body, scan_);
    bool have_record = false;
    // One-entry schema memo: data rows arrive in device order, so runs of
    // the same type are the common case.
    std::string_view memo_type;
    const Schema* memo_schema = nullptr;
    std::size_t fields_cap = fields_.capacity();
    while (scanner.next_line(fields_)) {
      if (fields_.capacity() != fields_cap) {
        fields_cap = fields_.capacity();
        ++stats.allocations;
      }
      const std::string_view line = scanner.line();
      if (line.empty()) continue;
      ++stats.lines;
      if (line[0] >= '0' && line[0] <= '9') {
        if (fields_.empty()) {
          throw std::invalid_argument("empty record line");
        }
        const auto secs = util::parse_i64(fields_[0]);
        if (!secs) {
          throw std::invalid_argument("bad timestamp: " + std::string(line));
        }
        RecordView rec;
        rec.time = *secs * util::kSecond;
        if (fields_.size() > 1 && fields_[1] != "-") {
          rec.jobids = parse_jobids(fields_[1], line, stats);
        }
        if (fields_.size() > 2) rec.mark = fields_[2];
        have_record = true;
        ++stats.records;
        sink.record(rec);
        continue;
      }
      // Data row.
      if (!have_record) {
        throw std::invalid_argument("data row before any timestamp line");
      }
      if (fields_.size() < 2) {
        throw std::invalid_argument("short data row: " + std::string(line));
      }
      RawBlockView block;
      block.type = fields_[0];
      if (fields_[1] != "-") block.device = fields_[1];
      if (block.type == memo_type && memo_schema != nullptr) {
        block.schema = memo_schema;
      } else {
        block.schema = log.schema_for(block.type);
        if (block.schema == nullptr) {
          throw std::invalid_argument("data row with unknown type: " +
                                      std::string(block.type));
        }
        memo_type = block.type;
        memo_schema = block.schema;
      }
      if (fields_.size() - 2 != block.schema->size()) {
        throw std::invalid_argument("data row arity mismatch for type " +
                                    std::string(block.type));
      }
      const auto values = resize_scratch(values_, fields_.size() - 2, stats);
      for (std::size_t i = 2; i < fields_.size(); ++i) {
        const auto v = detail::parse_counter(fields_[i]);
        if (!v) {
          throw std::invalid_argument("bad counter value: " +
                                      std::string(fields_[i]));
        }
        values[i - 2] = *v;
      }
      block.values = values;
      sink.block(block);
    }
    return stats;
  }

 private:
  /// Sizes a scratch vector to `n` elements, counting a capacity growth.
  template <typename T>
  static std::span<T> resize_scratch(std::vector<T>& v, std::size_t n,
                                     BodyStats& stats) {
    if (n > v.capacity()) ++stats.allocations;
    v.resize(n);
    return v;
  }

  /// Parses a comma-separated job-id list into the job-id scratch. `line`
  /// is the full raw line, for the error message.
  std::span<const long> parse_jobids(std::string_view list,
                                     std::string_view line, BodyStats& stats);

  util::ScanMode scan_;
  std::vector<std::string_view> fields_;
  std::vector<long> jobids_;
  std::vector<std::uint64_t> values_;
};

}  // namespace tacc::collect

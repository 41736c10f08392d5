// Raw stats record model and the text file format.
//
// A collection produces one Record: a timestamp, the job id(s) active on
// the node, an optional mark ("begin"/"end" from the scheduler prolog and
// epilog, "rotate" from the daily log rotation, "procstart"/"procstop" from
// the shared-node hooks), and one RawBlock of counter values per device
// instance.
//
// The serialized form mirrors the C tool's format:
//
//   $tacc_stats 2.1
//   $hostname c401-101
//   $arch hsw
//   !cpu user,E,U=jiffies nice,E ...
//   !hsw instructions,E,W=48 ...
//   1443657600 1001 begin
//   cpu 0 818 0 5 900 2
//   hsw 0 123456 234567 ...
//   mem - 33554432 614400 262144 ...
//
// Header lines start with '$', schema lines with '!', a digit starts a new
// record (epoch-seconds, job list, optional mark), anything else is a data
// row "type device v0 v1 ...". Multiple job ids are comma-separated; "-"
// means no job / no device instance.
//
// HostLog::parse reads the header lines itself and streams the body through
// collect::RecordViewParser (rawview.hpp) into owning Records, by way of a
// collect::MaterializeSink; transport::RawArchive builds its HostLog copies
// through the same sink.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collect/schema.hpp"
#include "util/clock.hpp"

namespace tacc::collect {

inline constexpr std::string_view kFormatTag = "tacc_stats 2.1";

/// Counter values for one device instance of one type at one instant.
struct RawBlock {
  std::string type;    // schema type, e.g. "cpu", "hsw", "llite"
  std::string device;  // instance id: cpu number, socket, target, pid
  std::vector<std::uint64_t> values;  // parallel to the type's schema

  bool operator==(const RawBlock&) const = default;
};

/// Everything captured in one collection on one host.
struct Record {
  util::SimTime time = 0;
  std::vector<long> jobids;  // jobs active on the node (shared nodes: >1)
  std::string mark;          // "", "begin", "end", "rotate", ...
  std::vector<RawBlock> blocks;

  bool operator==(const Record&) const = default;
};

/// A host's stats stream: identity, schemas, and an ordered record list.
/// This is both the in-memory representation of a node-local log file
/// (cron mode) and the unit shipped through the broker (daemon mode sends
/// header + one record per message). A plain value: concurrent const reads
/// need no set-up.
struct HostLog {
  std::string hostname;
  std::string arch;  // codename, informational
  std::vector<Schema> schemas;

  std::vector<Record> records;

  /// Returns the schema for a type, or nullptr (a scan of `schemas`).
  const Schema* schema_for(std::string_view type) const noexcept {
    return find_schema(schemas, type);
  }

  /// Serializes header (format/hostname/arch/schema lines).
  std::string serialize_header() const;
  /// Serializes one record (timestamp line + data rows).
  static std::string serialize_record(const Record& record);
  /// Serializes header + all records.
  std::string serialize() const;

  /// Parses a full file. Throws std::invalid_argument on malformed input.
  static HostLog parse(std::string_view text);

  /// Parses the header lines ($format/$hostname/$arch/!schema) at the top
  /// of `text` into this log and returns the byte offset where the record
  /// body begins. Throws std::invalid_argument on malformed headers or a
  /// missing format line.
  std::size_t parse_header(std::string_view text);

  /// Parses records from a body (no header) into an existing log, using its
  /// schemas for validation. Appends to `records`.
  void parse_records(std::string_view body);
};

}  // namespace tacc::collect

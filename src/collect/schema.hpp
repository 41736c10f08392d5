// Schema model for collected statistics.
//
// Every device type (cpu, hsw, imc, rapl, llite, ...) publishes a schema:
// an ordered list of keys with per-key properties. Schemas are serialized
// into the raw stats file header as "!<type> <key>,<flags> ..." lines, the
// same scheme the C tool uses, so a reader can decode files from nodes with
// different architectures or device sets.
//
// Per-key properties:
//   E        cumulative event counter (deltas are meaningful); absent = gauge
//   W=<bits> hardware counter width, for wraparound correction (default 64)
//   U=<unit> unit label (documentation + portal display)
//   S=<x>    scale: canonical value = raw * x (e.g. IB data words -> bytes,
//            RAPL register units -> microjoules)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tacc::collect {

struct SchemaEntry {
  std::string key;
  bool cumulative = true;
  int width_bits = 64;
  std::string unit;
  double scale = 1.0;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::string type, std::vector<SchemaEntry> entries);

  const std::string& type() const noexcept { return type_; }
  const std::vector<SchemaEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  const SchemaEntry& entry(std::size_t i) const { return entries_.at(i); }

  /// Index of a key, or nullopt if the key is absent (e.g. L2/LLC hit
  /// counters when hyperthreading limited the PMC budget).
  std::optional<std::size_t> index_of(std::string_view key) const noexcept;

  /// Serializes to a "!type key,flags key,flags ..." header line (no
  /// trailing newline).
  std::string spec_line() const;

  /// Parses a spec line. Throws std::invalid_argument on malformed input.
  static Schema parse(std::string_view line);

 private:
  std::string type_;
  std::vector<SchemaEntry> entries_;
};

/// The schema of `type` in a host header's schema list, or nullptr. A
/// header holds about 20 types and both readers memoize the last one, so a
/// scan is all the lookup needs.
const Schema* find_schema(const std::vector<Schema>& schemas,
                          std::string_view type) noexcept;

/// Applies wraparound correction: the delta from `prev` to `curr` for a
/// counter of the given width, assuming at most one wrap between samples.
std::uint64_t wrap_delta(std::uint64_t prev, std::uint64_t curr,
                         int width_bits) noexcept;

}  // namespace tacc::collect

#include "collect/schema.hpp"

#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace tacc::collect {

Schema::Schema(std::string type, std::vector<SchemaEntry> entries)
    : type_(std::move(type)), entries_(std::move(entries)) {}

std::optional<std::size_t> Schema::index_of(
    std::string_view key) const noexcept {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].key == key) return i;
  }
  return std::nullopt;
}

const Schema* find_schema(const std::vector<Schema>& schemas,
                          std::string_view type) noexcept {
  for (const auto& s : schemas) {
    if (s.type() == type) return &s;
  }
  return nullptr;
}

std::string Schema::spec_line() const {
  std::ostringstream os;
  os << '!' << type_;
  for (const auto& e : entries_) {
    os << ' ' << e.key;
    if (e.cumulative) os << ",E";
    if (e.width_bits != 64) os << ",W=" << e.width_bits;
    if (!e.unit.empty()) os << ",U=" << e.unit;
    if (e.scale != 1.0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, ",S=%.17g", e.scale);
      os << buf;
    }
  }
  return os.str();
}

Schema Schema::parse(std::string_view line) {
  using util::split;
  using util::split_ws;
  if (line.empty() || line[0] != '!') {
    throw std::invalid_argument("schema line must start with '!'");
  }
  const auto fields = split_ws(line.substr(1));
  if (fields.empty()) throw std::invalid_argument("schema line has no type");
  Schema s;
  s.type_ = std::string(fields[0]);
  for (std::size_t i = 1; i < fields.size(); ++i) {
    const auto parts = split(fields[i], ',');
    SchemaEntry e;
    e.key = std::string(parts[0]);
    e.cumulative = false;
    for (std::size_t p = 1; p < parts.size(); ++p) {
      const std::string_view f = parts[p];
      if (f == "E") {
        e.cumulative = true;
      } else if (util::starts_with(f, "W=")) {
        const auto w = util::parse_i64(f.substr(2));
        if (!w || *w < 1 || *w > 64) {
          throw std::invalid_argument("bad schema width: " + std::string(f));
        }
        e.width_bits = static_cast<int>(*w);
      } else if (util::starts_with(f, "U=")) {
        e.unit = std::string(f.substr(2));
      } else if (util::starts_with(f, "S=")) {
        const auto x = util::parse_f64(f.substr(2));
        if (!x) {
          throw std::invalid_argument("bad schema scale: " + std::string(f));
        }
        e.scale = *x;
      } else {
        throw std::invalid_argument("unknown schema flag: " + std::string(f));
      }
    }
    s.entries_.push_back(std::move(e));
  }
  return s;
}

std::uint64_t wrap_delta(std::uint64_t prev, std::uint64_t curr,
                         int width_bits) noexcept {
  if (width_bits >= 64) return curr - prev;  // unsigned wrap is correct
  const std::uint64_t modulus = 1ULL << width_bits;
  const std::uint64_t mask = modulus - 1;
  return (curr - prev) & mask;
}

}  // namespace tacc::collect

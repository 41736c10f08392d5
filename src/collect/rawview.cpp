#include "collect/rawview.hpp"

namespace tacc::collect {

std::span<const long> RecordViewParser::parse_jobids(std::string_view list,
                                                     std::string_view line,
                                                     BodyStats& stats) {
  // Comma split with empty segments preserved (an empty segment is a bad
  // job id), matching util::split + parse_i64 in the legacy parser.
  std::size_t count = 1;
  for (const char c : list) count += (c == ',');
  const auto ids = resize_scratch(jobids_, count, stats);
  std::size_t n = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= list.size(); ++i) {
    if (i == list.size() || list[i] == ',') {
      const auto id = util::parse_i64(list.substr(start, i - start));
      if (!id) {
        throw std::invalid_argument("bad job id: " + std::string(line));
      }
      ids[n++] = static_cast<long>(*id);
      start = i + 1;
    }
  }
  return ids;
}

}  // namespace tacc::collect

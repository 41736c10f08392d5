#include "transport/frame.hpp"

#include <charconv>
#include <stdexcept>

#include "collect/rawfile.hpp"
#include "util/strings.hpp"

namespace tacc::transport {
namespace {

constexpr std::string_view kMagic = "$tacc_agg 1 ";

[[noreturn]] void malformed(const char* what) {
  throw std::invalid_argument(std::string("AggFrame: ") + what);
}

std::uint64_t parse_u64(std::string_view tok, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) malformed(what);
  return v;
}

/// Consumes one '\n'-terminated line from `rest`, returning it sans newline.
std::string_view take_line(std::string_view& rest, const char* what) {
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) malformed(what);
  const std::string_view line = rest.substr(0, nl);
  rest.remove_prefix(nl + 1);
  return line;
}

void append_u64_csv(std::string& out, const std::uint64_t* v, std::size_t n) {
  char buf[24];
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out.push_back(',');
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v[i]);
    (void)ec;
    out.append(buf, ptr);
  }
}

std::vector<std::uint64_t> parse_u64_csv(std::string_view s,
                                         std::size_t expect,
                                         const char* what) {
  // n values take at least 2n - 1 bytes: refuse a count the line cannot
  // hold before it sizes the vector.
  if (expect > (s.size() + 1) / 2) malformed(what);
  std::vector<std::uint64_t> out;
  out.reserve(expect);
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    out.push_back(parse_u64(s.substr(0, comma), what));
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
  }
  if (out.size() != expect) malformed(what);
  return out;
}

/// The header_len rule of AggFrame::parse(): true if `header_len` ends the
/// payload's header where HostLog::parse_header does.
bool header_ends_at(std::string_view payload, std::size_t header_len) {
  const std::string_view header = payload.substr(0, header_len);
  const std::size_t first = header.find('\n');
  if (first == std::string_view::npos || header[0] != '$' ||
      header.substr(1, first - 1) != collect::kFormatTag) {
    return false;
  }
  for (std::size_t pos = first + 1; pos < header.size();) {
    const std::size_t nl = header.find('\n', pos);
    if (nl == std::string_view::npos ||
        (header[pos] != '$' && header[pos] != '!')) {
      return false;
    }
    pos = nl + 1;
  }
  return header_len == payload.size() ||
         (payload[header_len] >= '0' && payload[header_len] <= '9');
}

/// Parses everything but the payload into `f` and returns the offset of
/// the payload in `body`. Throws like AggFrame::parse().
std::size_t parse_meta(std::string_view body, AggFrame& f) {
  if (!util::starts_with(body, kMagic)) malformed("bad magic");
  std::string_view rest = body.substr(kMagic.size());
  const std::string_view meta = take_line(rest, "truncated meta line");
  const auto fields = util::split_ws(meta);
  if (fields.size() != 3) malformed("meta line wants <producer> <count> <header_len>");
  f.producer = std::string(fields[0]);
  const std::uint64_t count = parse_u64(fields[1], "bad count");
  f.header_len = parse_u64(fields[2], "bad header_len");

  std::string_view seq_line = take_line(rest, "truncated $seqs line");
  if (!util::starts_with(seq_line, "$seqs ")) malformed("missing $seqs");
  f.seqs = parse_u64_csv(seq_line.substr(6), count, "bad $seqs");

  std::string_view delay_line = take_line(rest, "truncated $delays line");
  if (!util::starts_with(delay_line, "$delays ")) malformed("missing $delays");
  const auto raw_delays = parse_u64_csv(delay_line.substr(8), count, "bad $delays");
  f.delays.assign(raw_delays.begin(), raw_delays.end());

  if (rest.size() < f.header_len) malformed("truncated payload");
  if (!header_ends_at(rest, f.header_len)) {
    malformed("header_len does not end the header");
  }
  return body.size() - rest.size();
}

}  // namespace

std::string AggFrame::serialize() const {
  std::string out;
  out.reserve(64 + 16 * seqs.size() + payload.size());
  out.append(kMagic);
  out.append(producer);
  out.push_back(' ');
  {
    char buf[24];
    auto [p1, e1] = std::to_chars(buf, buf + sizeof buf,
                                  static_cast<std::uint64_t>(seqs.size()));
    (void)e1;
    out.append(buf, p1);
    out.push_back(' ');
    auto [p2, e2] = std::to_chars(buf, buf + sizeof buf,
                                  static_cast<std::uint64_t>(header_len));
    (void)e2;
    out.append(buf, p2);
  }
  out.push_back('\n');
  out.append("$seqs ");
  append_u64_csv(out, seqs.data(), seqs.size());
  out.push_back('\n');
  out.append("$delays ");
  static_assert(sizeof(util::SimTime) == sizeof(std::uint64_t));
  append_u64_csv(out, reinterpret_cast<const std::uint64_t*>(delays.data()),
                 delays.size());
  out.push_back('\n');
  out.append(payload);
  return out;
}

collect::HostLog AggFrame::host_log() const {
  collect::HostLog log = collect::HostLog::parse(payload);
  if (log.records.size() != seqs.size()) {
    malformed("record/seq count mismatch");
  }
  return log;
}

AggFrame AggFrame::parse(std::string_view body) {
  AggFrame f;
  f.payload = std::string(body.substr(parse_meta(body, f)));
  return f;
}

AggFrame AggFrame::of_message(Message& msg) {
  AggFrame f;
  msg.body.erase(0, parse_meta(msg.body, f));
  f.payload = std::move(msg.body);
  for (auto& d : f.delays) d += msg.delay;
  return f;
}

std::vector<std::pair<std::string, std::uint64_t>> AggFrame::message_seqs(
    const Message& msg) {
  AggFrame f;
  parse_meta(msg.body, f);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(f.seqs.size());
  for (const std::uint64_t s : f.seqs) out.emplace_back(f.producer, s);
  return out;
}

}  // namespace tacc::transport

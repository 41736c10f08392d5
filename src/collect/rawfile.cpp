#include "collect/rawfile.hpp"

#include <charconv>
#include <stdexcept>

#include "collect/rawview.hpp"
#include "util/strings.hpp"

namespace tacc::collect {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[21];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_record(std::string& out, const Record& record) {
  append_i64(out, record.time / util::kSecond);
  out += ' ';
  if (record.jobids.empty()) {
    out += '-';
  } else {
    for (std::size_t i = 0; i < record.jobids.size(); ++i) {
      if (i) out += ',';
      append_i64(out, record.jobids[i]);
    }
  }
  if (!record.mark.empty()) {
    out += ' ';
    out += record.mark;
  }
  out += '\n';
  for (const auto& b : record.blocks) {
    out += b.type;
    out += ' ';
    if (b.device.empty()) {
      out += '-';
    } else {
      out += b.device;
    }
    for (const std::uint64_t v : b.values) {
      out += ' ';
      append_u64(out, v);
    }
    out += '\n';
  }
}

}  // namespace

std::string HostLog::serialize_header() const {
  std::string out;
  out += '$';
  out += kFormatTag;
  out += '\n';
  out += "$hostname ";
  out += hostname;
  out += '\n';
  out += "$arch ";
  out += arch;
  out += '\n';
  for (const auto& s : schemas) {
    out += s.spec_line();
    out += '\n';
  }
  return out;
}

std::string HostLog::serialize_record(const Record& record) {
  std::string out;
  append_record(out, record);
  return out;
}

std::string HostLog::serialize() const {
  std::string out = serialize_header();
  for (const auto& r : records) append_record(out, r);
  return out;
}

void HostLog::parse_records(std::string_view body) {
  // One parser per thread so repeated parses (the daemon consumer decodes
  // one message body per record) reuse the same scratch vectors: zero heap
  // allocations from the scan itself in steady state.
  static thread_local RecordViewParser parser;
  MaterializeSink sink(*this);
  parser.parse_body(*this, body, sink);
}

void MaterializeSink::header(const HostLog& log) {
  log_.hostname = log.hostname;
  log_.arch = log.arch;
  log_.schemas = log.schemas;
}

void MaterializeSink::record(const RecordView& r) {
  auto& records = log_.records;
  if (!records.empty()) block_hint_ = records.back().blocks.size();
  Record rec;
  rec.time = r.time;
  rec.jobids.assign(r.jobids.begin(), r.jobids.end());
  rec.mark = std::string(r.mark);
  rec.blocks.reserve(block_hint_);
  records.push_back(std::move(rec));
}

void MaterializeSink::block(const RawBlockView& b) {
  RawBlock blk;
  blk.type = std::string(b.type);
  blk.device = std::string(b.device);
  blk.values.assign(b.values.begin(), b.values.end());
  log_.records.back().blocks.push_back(std::move(blk));
}

std::size_t HostLog::parse_header(std::string_view text) {
  std::size_t body_start = 0;
  bool saw_format = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    const std::size_t line_end = eol < text.size() ? eol + 1 : text.size();
    if (!line.empty() && line[0] == '$') {
      const std::string_view rest = line.substr(1);
      if (rest == kFormatTag) {
        saw_format = true;
      } else if (util::starts_with(rest, "hostname ")) {
        hostname = std::string(util::trim(rest.substr(9)));
      } else if (util::starts_with(rest, "arch ")) {
        arch = std::string(util::trim(rest.substr(5)));
      } else {
        throw std::invalid_argument("unknown header line: " +
                                    std::string(line));
      }
      body_start = line_end;
      pos = line_end;
      continue;
    }
    if (!line.empty() && line[0] == '!') {
      schemas.push_back(Schema::parse(line));
      body_start = line_end;
      pos = line_end;
      continue;
    }
    break;  // first non-header line: body begins
  }
  if (!saw_format) {
    throw std::invalid_argument("missing $tacc_stats format line");
  }
  return body_start;
}

HostLog HostLog::parse(std::string_view text) {
  HostLog log;
  const std::size_t body_start = log.parse_header(text);
  if (body_start < text.size()) {
    log.parse_records(text.substr(body_start));
  }
  return log;
}

}  // namespace tacc::collect

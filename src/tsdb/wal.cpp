#include "tsdb/wal.hpp"

#include <cstdio>

#include "tsdb/coding.hpp"

namespace tacc::tsdb {

namespace {

constexpr std::size_t kWalHeaderSize = 4 + 4 + 4 + 8 + 4;
constexpr std::size_t kFrameOverhead = 8;  // u32 len + u32 crc
constexpr std::uint64_t kMaxRecordBytes = 1ull << 30;
/// Checkpoint entries share a frame until it holds this many bytes.
constexpr std::size_t kCheckpointFrameBytes = 1 << 16;

void append_points(std::vector<std::uint8_t>& out,
                   std::span<const DataPoint> points) {
  coding::put_varint(out, points.size());
  // Worst case 10 varint + 8 value bytes per point; trimmed below.
  const std::size_t at = out.size();
  out.resize(at + points.size() * 18);
  std::uint8_t* p = out.data() + at;
  util::SimTime prev = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const util::SimTime t = points[i].time;
    std::uint64_t zz = coding::zigzag(i == 0 ? t : t - prev);
    for (; zz >= 0x80; zz >>= 7) *p++ = static_cast<std::uint8_t>(zz) | 0x80;
    *p++ = static_cast<std::uint8_t>(zz);
    const std::uint64_t bits = coding::double_bits(points[i].value);
    for (int b = 0; b < 8; ++b) *p++ = static_cast<std::uint8_t>(bits >> (8 * b));
    prev = t;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// Parses one frame's entries into `out`. Throws CorruptionError on any
/// structural problem or an id the file has not defined yet; the caller
/// treats the frame as torn (the writer never produces this).
void decode_frame(std::span<const std::uint8_t> payload, WalReplay& out) {
  ByteReader r(payload, 0);
  while (r.left() > 0) {
    const std::uint8_t type = r.u8(0);
    if (type == kWalSeriesTag) {
      WalSeries& def = out.series.emplace_back();
      r.series_key(0, def.metric, def.tags);
      def.cum_sealed = r.varint(0);
    } else if (type == kWalRunTag) {
      WalRun run;
      const std::uint64_t id = r.varint(0);
      const std::uint64_t n = r.varint(0);
      if (id >= out.series.size() || r.left() / 9 < n) {  // >= 9 B/point
        throw CorruptionError("bad wal run", 0);
      }
      run.series = static_cast<std::uint32_t>(id);
      run.points.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        const util::SimTime dt = coding::unzigzag(r.varint(0));
        const util::SimTime t = i == 0 ? dt : run.points.back().time + dt;
        run.points.push_back({t, coding::bits_double(r.u64(0))});
      }
      if (n > 0) out.runs.push_back(std::move(run));
    } else if (type == kWalCheckpointEndTag && r.left() == 0) {
      out.checkpoint_complete = true;
    } else {
      throw CorruptionError("bad wal entry", 0);
    }
  }
}

}  // namespace

std::string wal_path(const std::string& dir, std::uint32_t shard,
                     std::uint64_t gen) {
  char name[40];
  std::snprintf(name, sizeof(name), "wal-%03u-%06llu.log", shard,
                static_cast<unsigned long long>(gen));
  return dir + "/" + name;
}

WalReplay replay_wal(const std::string& path) {
  const std::vector<std::uint8_t> data = util::read_file(path);
  if (data.size() >= 8 && coding::get_u32(data.data()) == kWalMagic &&
      coding::get_u32(data.data() + 4) != kWalFormatVersion) {
    throw WalVersionError(
        "wal " + path + " has format version " +
            std::to_string(coding::get_u32(data.data() + 4)) +
            "; this build reads version " + std::to_string(kWalFormatVersion),
        4);
  }
  if (data.size() < kWalHeaderSize) {
    throw CorruptionError("wal header too short", 0);
  }
  if (coding::get_u32(data.data()) != kWalMagic) {
    throw CorruptionError("bad wal magic", 0);
  }
  if (util::crc32c(data.data(), kWalHeaderSize - 4) !=
      coding::get_u32(data.data() + kWalHeaderSize - 4)) {
    throw CorruptionError("wal header checksum mismatch", 0);
  }

  WalReplay out;
  out.shard = coding::get_u32(data.data() + 8);
  out.gen = coding::get_u64(data.data() + 12);

  std::size_t pos = kWalHeaderSize;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameOverhead) {
      out.torn_offset = pos;
      break;
    }
    const std::uint64_t len = coding::get_u32(data.data() + pos);
    if (len == 0 || len > kMaxRecordBytes ||
        len > data.size() - pos - kFrameOverhead) {
      out.torn_offset = pos;
      break;
    }
    const std::uint32_t crc = coding::get_u32(data.data() + pos + 4);
    const std::uint8_t* payload = data.data() + pos + kFrameOverhead;
    if (util::crc32c(payload, static_cast<std::size_t>(len)) != crc) {
      out.torn_offset = pos;
      break;
    }
    const std::size_t n_series = out.series.size();
    const std::size_t n_runs = out.runs.size();
    try {
      decode_frame({payload, static_cast<std::size_t>(len)}, out);
    } catch (const CorruptionError&) {
      out.series.resize(n_series);  // a frame applies whole or not at all
      out.runs.resize(n_runs);
      out.torn_offset = pos;
      break;
    }
    pos += kFrameOverhead + static_cast<std::size_t>(len);
  }
  return out;
}

WalWriter::WalWriter(const std::string& path, std::uint32_t shard,
                     std::uint64_t gen, WalSync sync_mode,
                     std::shared_ptr<const util::FaultPlan> faults)
    : path_(path),
      fault_key_("shard-" + std::to_string(shard)),
      gen_(gen),
      sync_mode_(sync_mode),
      faults_(std::move(faults)),
      file_(path, /*truncate=*/true),
      frame_(kFrameOverhead) {
  std::vector<std::uint8_t> h;
  coding::put_u32(h, kWalMagic);
  coding::put_u32(h, kWalFormatVersion);
  coding::put_u32(h, shard);
  coding::put_u64(h, gen);
  coding::put_u32(h, util::crc32c(h.data(), h.size()));
  file_.append(h);
}

void WalWriter::check_poisoned() const {
  if (poisoned_) throw InjectedCrash(std::string(util::kFaultWalAppend));
}

std::uint32_t WalWriter::define(std::string_view metric, TagViews tags,
                                std::uint64_t cum_sealed) {
  frame_.push_back(kWalSeriesTag);
  put_series_key(frame_, metric, tags);
  coding::put_varint(frame_, cum_sealed);
  return defined_++;
}

void WalWriter::run(std::uint32_t id, std::span<const DataPoint> points) {
  frame_.push_back(kWalRunTag);
  coding::put_varint(frame_, id);
  append_points(frame_, points);
}

std::uint32_t WalWriter::checkpoint(std::string_view metric, TagViews tags,
                                    std::uint64_t cum_sealed,
                                    std::span<const DataPoint> points) {
  const std::uint32_t id = define(metric, tags, cum_sealed);
  if (!points.empty()) run(id, points);
  if (frame_.size() >= kCheckpointFrameBytes) commit();
  return id;
}

void WalWriter::end_checkpoint() {
  frame_.push_back(kWalCheckpointEndTag);
  commit();
}

void WalWriter::commit() {
  check_poisoned();
  if (frame_.size() == kFrameOverhead) return;
  const std::size_t len = frame_.size() - kFrameOverhead;
  const std::uint32_t head[2] = {
      static_cast<std::uint32_t>(len),
      util::crc32c(frame_.data() + kFrameOverhead, len)};
  for (int i = 0; i < 8; ++i) {
    frame_[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(head[i / 4] >> (8 * (i % 4)));
  }

  if (faults_ != nullptr && !faults_->empty()) {
    const std::uint64_t salt = ops_++;
    // Both sites tear the frame *before* it completes: a frame must never
    // be durable while its put reported failure, or recovery would replay
    // a point the caller was told did not land. (wal.sync is consulted
    // here too because in Always mode the sync is part of the append op.)
    std::string_view site;
    if (faults_->decide(util::kFaultWalAppend, fault_key_, salt, 0).error) {
      site = util::kFaultWalAppend;
    } else if (sync_mode_ == WalSync::Always &&
               faults_->decide(util::kFaultWalSync, fault_key_, salt, 0)
                   .error) {
      site = util::kFaultWalSync;
    }
    if (!site.empty()) {
      // Torn write: a deterministic prefix of the frame reaches the file,
      // like a process killed mid-write. The frame's CRC can no longer
      // match, so replay stops exactly here.
      const auto torn = static_cast<std::size_t>(
          faults_->uniform(site, fault_key_, salt) *
          static_cast<double>(frame_.size()));
      file_.append(std::span<const std::uint8_t>(frame_).subspan(0, torn));
      file_.flush();
      poisoned_ = true;
      throw InjectedCrash(std::string(site));
    }
  }
  file_.append(frame_);
  frame_.resize(kFrameOverhead);
  if (sync_mode_ == WalSync::Always) {
    file_.sync();
  } else {
    file_.flush();  // keep the kernel's view current for torn-tail realism
  }
}

void WalWriter::sync() {
  check_poisoned();
  if (sync_mode_ == WalSync::Never) {
    file_.flush();
    return;
  }
  if (faults_ != nullptr && !faults_->empty()) {
    const std::uint64_t salt = ops_++;
    if (faults_->decide(util::kFaultWalSync, fault_key_, salt, 0).error) {
      file_.flush();
      poisoned_ = true;
      throw InjectedCrash(std::string(util::kFaultWalSync));
    }
  }
  file_.sync();
}

}  // namespace tacc::tsdb

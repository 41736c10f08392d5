#include "tsdb/blockfile.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "tsdb/coding.hpp"

namespace tacc::tsdb {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;
constexpr std::size_t kFooterSize = 1 + 8 + 4 + 4;

void append_crc(std::vector<std::uint8_t>& buf, std::size_t start) {
  coding::put_u32(buf, util::crc32c(buf.data() + start, buf.size() - start));
}

/// Serializes the whole segment into one buffer; write_segment then
/// either writes it fully or, under an injected crash, a deterministic
/// torn prefix of it.
std::vector<std::uint8_t> serialize_segment(
    std::uint64_t file_seq, std::span<const SeriesPayload* const> series) {
  std::vector<std::uint8_t> buf;
  coding::put_u32(buf, kSegmentMagic);
  coding::put_u32(buf, kSegmentFormatVersion);
  coding::put_u64(buf, file_seq);
  append_crc(buf, 0);

  for (const SeriesPayload* p : series) {
    const SeriesPayload& sp = *p;
    const std::size_t rec_start = buf.size();
    buf.push_back(kSegmentSeriesTag);
    put_series_key(buf, sp.metric, sp.tags);
    coding::put_varint(buf, sp.cum_sealed);
    coding::put_varint(buf, sp.blocks.size());
    append_crc(buf, rec_start);

    for (const auto& block : sp.blocks) {
      const std::size_t blk_start = buf.size();
      const BlockSummary& s = block->summary();
      buf.push_back(kSegmentBlockTag);
      coding::put_varint(buf, coding::zigzag(s.t_min));
      coding::put_varint(buf, static_cast<std::uint64_t>(s.t_max - s.t_min));
      coding::put_varint(buf, s.count);
      coding::put_u64(buf, coding::double_bits(s.sum));
      coding::put_u64(buf, coding::double_bits(s.min));
      coding::put_u64(buf, coding::double_bits(s.max));
      const auto times = block->times_bytes();
      const auto values = block->values_bytes();
      coding::put_varint(buf, times.size());
      coding::put_varint(buf, values.size());
      coding::put_varint(buf, block->tiers().size());
      for (const auto& t : block->tiers()) {
        coding::put_varint(buf, static_cast<std::uint64_t>(t.interval));
        coding::put_varint(buf, t.data.size());
      }
      buf.insert(buf.end(), times.begin(), times.end());
      buf.insert(buf.end(), values.begin(), values.end());
      for (const auto& t : block->tiers()) {
        buf.insert(buf.end(), t.data.begin(), t.data.end());
      }
      append_crc(buf, blk_start);
    }
  }

  const std::size_t footer_start = buf.size();
  buf.push_back(kSegmentFooterTag);
  coding::put_u64(buf, series.size());
  append_crc(buf, footer_start);
  coding::put_u32(buf, kSegmentFooterMagic);
  return buf;
}

/// Consults the fault plan for one file write; on an injected error,
/// writes a deterministic torn prefix of `buf` to `path` and throws.
void write_with_crash_injection(const std::string& path,
                                std::span<const std::uint8_t> buf,
                                const util::FaultPlan* faults,
                                std::string_view site, std::string_view key,
                                std::uint64_t salt) {
  std::size_t limit = buf.size();
  bool crash = false;
  if (faults != nullptr && !faults->empty()) {
    const auto d = faults->decide(site, key, salt, 0);
    if (d.error) {
      crash = true;
      limit = static_cast<std::size_t>(
          faults->uniform(site, key, salt) * static_cast<double>(buf.size()));
    }
  }
  util::FileWriter w(path, /*truncate=*/true);
  w.append(buf.subspan(0, limit));
  if (crash) {
    w.close();  // the torn prefix reaches the file, like a killed process
    throw InjectedCrash(std::string(site));
  }
  w.sync();
  w.close();
}

}  // namespace

std::string segment_path(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.blk",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

void write_segment(const std::string& path, std::uint64_t file_seq,
                   std::span<const SeriesPayload* const> series,
                   const util::FaultPlan* faults, std::string_view fault_key) {
  const std::vector<std::uint8_t> buf = serialize_segment(file_seq, series);
  write_with_crash_injection(path, buf, faults, util::kFaultBlockFileWrite,
                             fault_key, file_seq);
}

LoadedSegment load_segment(const std::string& path) {
  LoadedSegment out;
  out.file = util::MmapFile::map(path);
  const auto data = out.file->bytes();

  if (data.size() < kHeaderSize + kFooterSize) {
    throw CorruptionError("segment too short", 0);
  }
  ByteReader header(data, 0);
  if (header.u32(0) != kSegmentMagic) {
    throw CorruptionError("bad segment magic", 0);
  }
  if (header.u32(0) != kSegmentFormatVersion) {
    throw CorruptionError("unsupported segment version", 4);
  }
  out.file_seq = header.u64(0);
  header.check_crc(0, "segment header");

  // Footer first: it is the commit marker, so a torn tail is reported as
  // "no footer" before any body record is trusted.
  const std::size_t footer_off = data.size() - kFooterSize;
  ByteReader footer(data, footer_off);
  if (footer.u8(footer_off) != kSegmentFooterTag) {
    throw CorruptionError("missing segment footer", footer_off);
  }
  const std::uint64_t n_series = footer.u64(footer_off);
  footer.check_crc(footer_off, "segment footer");
  if (footer.u32(footer_off) != kSegmentFooterMagic) {
    throw CorruptionError("bad segment footer magic", footer_off);
  }

  ByteReader r({data.data(), footer_off}, kHeaderSize);
  out.series.reserve(n_series);
  for (std::uint64_t si = 0; si < n_series; ++si) {
    const std::size_t rec_start = r.pos();
    if (r.u8(rec_start) != kSegmentSeriesTag) {
      throw CorruptionError("bad series tag", rec_start);
    }
    SeriesPayload sp;
    r.series_key(rec_start, sp.metric, sp.tags);
    sp.cum_sealed = r.varint(rec_start);
    const std::uint64_t n_blocks = r.varint(rec_start);
    r.check_crc(rec_start, "series record");

    sp.blocks.reserve(n_blocks);
    for (std::uint64_t bi = 0; bi < n_blocks; ++bi) {
      const std::size_t blk_start = r.pos();
      if (r.u8(blk_start) != kSegmentBlockTag) {
        throw CorruptionError("bad block tag", blk_start);
      }
      BlockSummary s;
      s.t_min = coding::unzigzag(r.varint(blk_start));
      s.t_max = s.t_min + static_cast<util::SimTime>(r.varint(blk_start));
      s.count = static_cast<std::uint32_t>(r.varint(blk_start));
      s.sum = coding::bits_double(r.u64(blk_start));
      s.min = coding::bits_double(r.u64(blk_start));
      s.max = coding::bits_double(r.u64(blk_start));
      if (s.count == 0) {
        throw CorruptionError("empty block", blk_start);
      }
      const std::uint64_t times_len = r.varint(blk_start);
      const std::uint64_t values_len = r.varint(blk_start);
      if ((times_len == 0) != (values_len == 0)) {
        throw CorruptionError("half-empty block streams", blk_start);
      }
      const std::uint64_t n_tiers = r.varint(blk_start);
      std::vector<TierLevel> tiers(n_tiers);
      for (auto& t : tiers) {
        t.interval = static_cast<util::SimTime>(r.varint(blk_start));
        if (t.interval <= 0) {
          throw CorruptionError("bad tier interval", blk_start);
        }
        // entries/has_nan parsed by from_parts; reuse `entries` to stage
        // the stream length until the data spans are cut below.
        t.entries = static_cast<std::uint32_t>(r.varint(blk_start));
      }
      const auto times = r.bytes(times_len, blk_start);
      const auto values = r.bytes(values_len, blk_start);
      for (auto& t : tiers) {
        t.data = r.bytes(t.entries, blk_start);
        t.entries = 0;
      }
      r.check_crc(blk_start, "block record");
      sp.blocks.push_back(
          SealedBlock::from_parts(s, times, values, std::move(tiers),
                                  out.file));
    }
    out.series.push_back(std::move(sp));
  }
  if (r.pos() != footer_off) {
    throw CorruptionError("trailing bytes before footer", r.pos());
  }
  return out;
}

Manifest read_manifest(const std::string& dir) {
  const std::string path = dir + "/MANIFEST";
  if (!std::filesystem::exists(path)) return Manifest{};
  const std::vector<std::uint8_t> data = util::read_file(path);
  ByteReader r(data, 0);
  if (r.u32(0) != kManifestMagic) {
    throw CorruptionError("bad manifest magic", 0);
  }
  if (r.u32(0) != kManifestFormatVersion) {
    throw CorruptionError("unsupported manifest version", 4);
  }
  Manifest m;
  m.next_seq = r.u64(0);
  const std::uint32_t n = r.u32(0);
  m.segments.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.segments.push_back(r.u64(0));
  r.check_crc(0, "manifest");
  return m;
}

void write_manifest(const std::string& dir, const Manifest& manifest,
                    const util::FaultPlan* faults, std::string_view fault_site,
                    std::uint64_t salt) {
  std::vector<std::uint8_t> buf;
  coding::put_u32(buf, kManifestMagic);
  coding::put_u32(buf, kManifestFormatVersion);
  coding::put_u64(buf, manifest.next_seq);
  coding::put_u32(buf, static_cast<std::uint32_t>(manifest.segments.size()));
  for (const std::uint64_t s : manifest.segments) coding::put_u64(buf, s);
  append_crc(buf, 0);

  const std::string tmp = dir + "/MANIFEST.tmp";
  write_with_crash_injection(tmp, buf, faults, fault_site, "manifest", salt);
  util::atomic_replace(tmp, dir + "/MANIFEST");
}

}  // namespace tacc::tsdb

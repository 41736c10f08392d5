#include "tsdb/blockfile.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "tsdb/coding.hpp"

namespace tacc::tsdb {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;
constexpr std::size_t kFooterSize = 1 + 8 + 4 + 4;

/// Appends the CRC of everything in `buf`: the tail of one record.
void append_crc(std::vector<std::uint8_t>& buf) {
  coding::put_u32(buf, util::crc32c(buf.data(), buf.size()));
}

/// The one tear rule of the segment and manifest writes. `w` holds the
/// whole file at `path`. Without an injected error at (site, key, salt)
/// the file is synced and closed; with one it is cut to a deterministic
/// prefix, as a process killed mid-write would leave it, and
/// InjectedCrash is thrown.
void finish_file(util::FileWriter& w, const std::string& path,
                 const util::FaultPlan* faults, std::string_view site,
                 std::string_view key, std::uint64_t salt) {
  if (faults != nullptr && !faults->empty() &&
      faults->decide(site, key, salt, 0).error) {
    const std::size_t size = w.offset();
    w.close();
    std::filesystem::resize_file(
        path, static_cast<std::size_t>(faults->uniform(site, key, salt) *
                                       static_cast<double>(size)));
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
                   std::span<const SegmentSeries> series,
                   const util::FaultPlan* faults, std::string_view fault_key) {
  util::FileWriter w(path, /*truncate=*/true);
  // One record at a time: staged, checksummed, appended, reused.
  std::vector<std::uint8_t> rec;
  const auto emit = [&w, &rec] {
    append_crc(rec);
    w.append(rec);
    rec.clear();
  };
  coding::put_u32(rec, kSegmentMagic);
  coding::put_u32(rec, kSegmentFormatVersion);
  coding::put_u64(rec, file_seq);
  emit();

  for (const SegmentSeries& sp : series) {
    rec.push_back(kSegmentSeriesTag);
    put_series_key(rec, sp.metric, sp.tags);
    coding::put_varint(rec, sp.cum_sealed);
    coding::put_varint(rec, sp.blocks.size());
    emit();

    for (const auto& block : sp.blocks) {
      const BlockSummary& s = block->summary();
      rec.push_back(kSegmentBlockTag);
      coding::put_varint(rec, coding::zigzag(s.t_min));
      coding::put_varint(rec, static_cast<std::uint64_t>(s.t_max - s.t_min));
      coding::put_varint(rec, s.count);
      coding::put_u64(rec, coding::double_bits(s.sum));
      coding::put_u64(rec, coding::double_bits(s.min));
      coding::put_u64(rec, coding::double_bits(s.max));
      const auto times = block->times_bytes();
      const auto values = block->values_bytes();
      coding::put_varint(rec, times.size());
      coding::put_varint(rec, values.size());
      coding::put_varint(rec, block->tiers().size());
      for (const auto& t : block->tiers()) {
        coding::put_varint(rec, static_cast<std::uint64_t>(t.interval));
        coding::put_varint(rec, t.data.size());
      }
      rec.insert(rec.end(), times.begin(), times.end());
      rec.insert(rec.end(), values.begin(), values.end());
      for (const auto& t : block->tiers()) {
        rec.insert(rec.end(), t.data.begin(), t.data.end());
      }
      emit();
    }
  }

  rec.push_back(kSegmentFooterTag);
  coding::put_u64(rec, series.size());
  append_crc(rec);
  coding::put_u32(rec, kSegmentFooterMagic);
  w.append(rec);
  finish_file(w, path, faults, util::kFaultBlockFileWrite, fault_key,
              file_seq);
}

std::uint64_t load_segment(
    const std::string& path,
    const std::function<void(const SegmentSeries&)>& visit) {
  const auto file = util::MmapFile::map(path);
  const auto data = file->bytes();

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
  const std::uint64_t file_seq = header.u64(0);
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
  std::vector<std::pair<std::string_view, std::string_view>> tags;
  std::vector<std::shared_ptr<const SealedBlock>> blocks;
  for (std::uint64_t si = 0; si < n_series; ++si) {
    const std::size_t rec_start = r.pos();
    if (r.u8(rec_start) != kSegmentSeriesTag) {
      throw CorruptionError("bad series tag", rec_start);
    }
    const std::string_view metric = r.view(rec_start);
    const std::uint64_t n_tags = r.varint(rec_start);
    tags.clear();
    for (std::uint64_t i = 0; i < n_tags; ++i) {
      const std::string_view k = r.view(rec_start);
      tags.emplace_back(k, r.view(rec_start));
    }
    const std::uint64_t cum_sealed = r.varint(rec_start);
    const std::uint64_t n_blocks = r.varint(rec_start);
    r.check_crc(rec_start, "series record");

    blocks.clear();
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
      if (n_tiers > r.left() / 2) {  // sized before the CRC: 2+ B per tier
        throw CorruptionError("bad tier count", blk_start);
      }
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
      blocks.push_back(
          SealedBlock::from_parts(s, times, values, std::move(tiers), file));
    }
    visit({metric, tags, cum_sealed, blocks});
  }
  if (r.pos() != footer_off) {
    throw CorruptionError("trailing bytes before footer", r.pos());
  }
  return file_seq;
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
  append_crc(buf);

  const std::string tmp = dir + "/MANIFEST.tmp";
  util::FileWriter w(tmp, /*truncate=*/true);
  w.append(buf);
  finish_file(w, tmp, faults, fault_site, "manifest", salt);
  util::atomic_replace(tmp, dir + "/MANIFEST");
}

}  // namespace tacc::tsdb

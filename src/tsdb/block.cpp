#include "tsdb/block.hpp"

#include <cstring>

#include "tsdb/coding.hpp"
#include "tsdb/store.hpp"

namespace tacc::tsdb {

namespace {

using coding::BitWriter;
using coding::read_bits;

/// Appends one timestamp delta-of-delta in its prefix-coded class:
/// '0' | '10'+7b | '110'+12b | '1110'+20b | '11110'+32b | '11111'+64b,
/// the payload being zigzag(dod). At a fixed cadence every point after
/// the second hits the 1-bit class.
void put_time_dod(BitWriter& w, std::int64_t dod) {
  const std::uint64_t u = coding::zigzag(dod);
  if (u == 0) {
    w.bit(false);
  } else if (u < (1ull << 7)) {
    w.bits(0b10, 2);
    w.bits(u, 7);
  } else if (u < (1ull << 12)) {
    w.bits(0b110, 3);
    w.bits(u, 12);
  } else if (u < (1ull << 20)) {
    w.bits(0b1110, 4);
    w.bits(u, 20);
  } else if (u < (1ull << 32)) {
    w.bits(0b11110, 5);
    w.bits(u, 32);
  } else {
    w.bits(0b11111, 5);
    w.bits(u, 64);
  }
}

std::int64_t get_time_dod(std::span<const std::uint8_t> data,
                          std::size_t& pos) noexcept {
  const auto read = [&](int n) {
    return read_bits(data.data(), data.size(), pos, n);
  };
  if (read(1) == 0) return 0;
  if (read(1) == 0) return coding::unzigzag(read(7));
  if (read(1) == 0) return coding::unzigzag(read(12));
  if (read(1) == 0) return coding::unzigzag(read(20));
  if (read(1) == 0) return coding::unzigzag(read(32));
  return coding::unzigzag(read(64));
}

/// Encodes one downsample tier over time-sorted points: a varint entry
/// count, a NaN flag byte, then per entry the bucket (first absolute in
/// interval units, zigzag; then delta in units), the point count, and the
/// min/max doubles XOR'd against the previous entry's bit patterns. The
/// folds are aggregate()'s, so tier answers join query folds bit-exactly.
std::vector<std::uint8_t> encode_tier(std::span<const DataPoint> points,
                                      util::SimTime interval,
                                      std::uint32_t& entries, bool& has_nan) {
  std::vector<std::uint8_t> body;
  std::uint32_t n = 0;
  std::uint64_t prev_min = 0;
  std::uint64_t prev_max = 0;
  util::SimTime prev_bucket = 0;
  has_nan = false;
  std::vector<double> vals;
  std::size_t i = 0;
  while (i < points.size()) {
    const util::SimTime b = points[i].time - points[i].time % interval;
    std::size_t j = i;
    vals.clear();
    while (j < points.size() &&
           points[j].time - points[j].time % interval == b) {
      vals.push_back(points[j].value);
      ++j;
    }
    const double mn = aggregate(Aggregator::Min, vals);
    const double mx = aggregate(Aggregator::Max, vals);
    if (mn != mn || mx != mx) has_nan = true;
    if (n == 0) {
      coding::put_varint(body, coding::zigzag(b / interval));
    } else {
      coding::put_varint(
          body, static_cast<std::uint64_t>((b - prev_bucket) / interval));
    }
    coding::put_varint(body, j - i);
    const std::uint64_t mnb = coding::double_bits(mn);
    const std::uint64_t mxb = coding::double_bits(mx);
    coding::put_varint(body, mnb ^ prev_min);
    coding::put_varint(body, mxb ^ prev_max);
    prev_min = mnb;
    prev_max = mxb;
    prev_bucket = b;
    ++n;
    i = j;
  }
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 4);
  coding::put_varint(out, n);
  out.push_back(has_nan ? 1 : 0);
  out.insert(out.end(), body.begin(), body.end());
  entries = n;
  return out;
}

}  // namespace

std::shared_ptr<const SealedBlock> SealedBlock::seal(
    std::span<const DataPoint> points,
    std::span<const util::SimTime> tier_intervals) {
  auto block = std::shared_ptr<SealedBlock>(new SealedBlock());

  // Summary, with the exact folds tsdb::aggregate() applies so a bucket
  // answered from the summary is bit-identical to one answered by decode.
  std::vector<double> values;
  values.reserve(points.size());
  for (const auto& p : points) values.push_back(p.value);
  BlockSummary& s = block->summary_;
  s.t_min = points.front().time;
  s.t_max = points.back().time;
  s.count = static_cast<std::uint32_t>(points.size());
  s.sum = aggregate(Aggregator::Sum, values);
  s.min = aggregate(Aggregator::Min, values);
  s.max = aggregate(Aggregator::Max, values);

  // Timestamps: t0 as 64 raw bits, then bit-packed delta-of-delta.
  BitWriter tw(block->own_times_);
  util::SimTime prev_t = 0;
  util::SimTime prev_delta = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const util::SimTime t = points[i].time;
    if (i == 0) {
      tw.bits(static_cast<std::uint64_t>(t), 64);
    } else {
      const util::SimTime delta = t - prev_t;
      put_time_dod(tw, delta - prev_delta);
      prev_delta = delta;
    }
    prev_t = t;
  }
  tw.finish();

  // Values: Gorilla XOR with a leading/meaningful-bit window.
  BitWriter w(block->own_values_);
  std::uint64_t prev_bits = 0;
  int win_lead = 0;
  int win_bits = 0;
  bool have_window = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t bits = coding::double_bits(points[i].value);
    if (i == 0) {
      w.bits(bits, 64);
    } else {
      const std::uint64_t x = bits ^ prev_bits;
      if (x == 0) {
        w.bit(false);
      } else {
        w.bit(true);
        int lead = std::countl_zero(x);
        if (lead > 31) lead = 31;  // 5-bit field
        const int trail = std::countr_zero(x);
        if (have_window && lead >= win_lead &&
            trail >= 64 - win_lead - win_bits) {
          // Fits the previous window: reuse it, write only its bits.
          w.bit(false);
          w.bits(x >> (64 - win_lead - win_bits), win_bits);
        } else {
          win_lead = lead;
          win_bits = 64 - lead - trail;
          have_window = true;
          w.bit(true);
          w.bits(static_cast<std::uint64_t>(win_lead), 5);
          w.bits(static_cast<std::uint64_t>(win_bits - 1), 6);
          w.bits(x >> trail, win_bits);
        }
      }
    }
    prev_bits = bits;
  }
  w.finish();

  block->own_times_.shrink_to_fit();
  block->own_values_.shrink_to_fit();
  block->times_ = block->own_times_;
  block->values_ = block->own_values_;

  block->own_tiers_.reserve(tier_intervals.size());
  block->tiers_.reserve(tier_intervals.size());
  for (const util::SimTime interval : tier_intervals) {
    if (interval <= 0) continue;
    TierLevel level;
    level.interval = interval;
    block->own_tiers_.push_back(
        encode_tier(points, interval, level.entries, level.has_nan));
    level.data = block->own_tiers_.back();
    block->tiers_.push_back(level);
  }
  return block;
}

std::shared_ptr<const SealedBlock> SealedBlock::from_parts(
    const BlockSummary& summary, std::span<const std::uint8_t> times,
    std::span<const std::uint8_t> values, std::vector<TierLevel> tiers,
    std::shared_ptr<const void> backing) {
  auto block = std::shared_ptr<SealedBlock>(new SealedBlock());
  block->summary_ = summary;
  block->times_ = times;
  block->values_ = values;
  for (auto& t : tiers) {
    // The caller validated the enclosing checksum; parse the tier header.
    if (t.data.empty()) {
      t.entries = 0;
      t.has_nan = false;
      continue;
    }
    std::size_t pos = 0;
    t.entries =
        static_cast<std::uint32_t>(coding::get_varint(t.data.data(), pos));
    t.has_nan = pos < t.data.size() && t.data[pos] != 0;
  }
  block->tiers_ = std::move(tiers);
  block->backing_ = std::move(backing);
  return block;
}

bool SealedBlock::Cursor::next(DataPoint& out) noexcept {
  if (index_ >= block_->summary_.count || !block_->has_raw()) return false;
  const std::span<const std::uint8_t> ts = block_->times_;
  const std::span<const std::uint8_t> vs = block_->values_;
  const auto value = [&](int n) {
    return read_bits(vs.data(), vs.size(), value_bit_, n);
  };

  if (index_ == 0) {
    prev_time_ = static_cast<util::SimTime>(
        read_bits(ts.data(), ts.size(), time_bit_, 64));
    prev_bits_ = value(64);
  } else {
    prev_delta_ += get_time_dod(ts, time_bit_);
    prev_time_ += prev_delta_;

    if (value(1) != 0) {
      if (value(1) != 0) {
        window_leading_ = static_cast<int>(value(5));
        window_bits_ = static_cast<int>(value(6)) + 1;
        have_window_ = true;
      }
      const std::uint64_t meaningful = value(window_bits_);
      prev_bits_ ^= meaningful << (64 - window_leading_ - window_bits_);
    }
  }

  ++index_;
  out.time = prev_time_;
  out.value = coding::bits_double(prev_bits_);
  return true;
}

SealedBlock::TierCursor::TierCursor(const TierLevel& level) noexcept
    : level_(&level) {
  if (!level.data.empty()) {
    (void)coding::get_varint(level.data.data(), pos_);  // entry count
    ++pos_;                                             // NaN flag byte
  }
}

bool SealedBlock::TierCursor::next(TierEntry& out) noexcept {
  if (index_ >= level_->entries) return false;
  const std::uint8_t* d = level_->data.data();
  if (index_ == 0) {
    prev_bucket_ = coding::unzigzag(coding::get_varint(d, pos_)) *
                   level_->interval;
  } else {
    prev_bucket_ += static_cast<util::SimTime>(coding::get_varint(d, pos_)) *
                    level_->interval;
  }
  out.bucket = prev_bucket_;
  out.count = static_cast<std::uint32_t>(coding::get_varint(d, pos_));
  prev_min_bits_ ^= coding::get_varint(d, pos_);
  prev_max_bits_ ^= coding::get_varint(d, pos_);
  out.min = coding::bits_double(prev_min_bits_);
  out.max = coding::bits_double(prev_max_bits_);
  ++index_;
  return true;
}

void SealedBlock::decode_append(std::vector<DataPoint>& out) const {
  if (!has_raw()) return;
  out.reserve(out.size() + summary_.count);
  Cursor c(*this);
  DataPoint p;
  while (c.next(p)) out.push_back(p);
}

std::string canonical_tags(const TagSet& tags) {
  std::size_t size = 0;
  for (const auto& [k, v] : tags) size += k.size() + v.size() + 2;
  std::string out;
  out.reserve(size);  // exact unless a tag needs escapes
  const auto append = [&out](const std::string& s) {
    for (const char c : s) {
      if (c == '\\' || c == ',' || c == '=') out += '\\';
      out += c;
    }
  };
  for (const auto& [k, v] : tags) {
    append(k);
    out += '=';
    append(v);
    out += ',';
  }
  return out;
}

}  // namespace tacc::tsdb

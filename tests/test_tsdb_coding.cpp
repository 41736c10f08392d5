// The durable tsdb's primitive codecs and buffers: CRC-32C known answers
// and hardware/table agreement, the word-at-a-time bit writer and reader
// against a one-bit reference, the head buffer's geometric growth, and
// the allocations of a flush (counted by a replacement operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tsdb/coding.hpp"
#include "tsdb/store.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

// Out of line, so the compiler never pairs an inlined free() with a new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tacc::tsdb {
namespace {

// ---- CRC-32C -------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // RFC 3720, appendix B.4.
  const char digits[] = "123456789";
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_EQ(util::crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(util::crc32c_table(digits, 9), 0xE3069283u);
  EXPECT_EQ(util::crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(util::crc32c_table(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(util::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, DispatchedKernelMatchesTableAtEveryLengthAndAlignment) {
  util::Rng rng("crc32c", 7);
  std::vector<std::uint8_t> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint8_t* p = buf.data() + align;
      const std::uint32_t want = util::crc32c_table(p, len);
      ASSERT_EQ(util::crc32c(p, len), want)
          << "len " << len << " align " << align;
      // Chained: any split point gives the whole buffer's checksum.
      const std::size_t cut = len / 3;
      ASSERT_EQ(util::crc32c(p + cut, len - cut, util::crc32c(p, cut)), want)
          << "len " << len << " align " << align << " cut " << cut;
      ASSERT_EQ(util::crc32c(p, len, 0x12345678u),
                util::crc32c_table(p, len, 0x12345678u));
    }
  }
}

// ---- Bit I/O -------------------------------------------------------------

/// The one-bit-at-a-time MSB-first writer the word writer must match.
struct ReferenceBitWriter {
  std::vector<std::uint8_t> out;
  int fill = 0;
  void bits(std::uint64_t v, int n) {
    for (int i = n - 1; i >= 0; --i) {
      if (fill == 0) {
        out.push_back(0);
        fill = 8;
      }
      --fill;
      if ((v >> i) & 1) out.back() |= static_cast<std::uint8_t>(1u << fill);
    }
  }
};

std::vector<std::pair<std::uint64_t, int>> random_fields(std::uint64_t seed,
                                                         int count) {
  util::Rng rng("bitio", seed);
  std::vector<std::pair<std::uint64_t, int>> fields;
  for (int i = 0; i < count; ++i) {
    const int n = static_cast<int>(rng.uniform_int(0, 64));
    fields.emplace_back(rng(), n);  // junk above bit n: writers ignore it
  }
  return fields;
}

std::uint64_t low_bits(std::uint64_t v, int n) {
  return n == 64 ? v : v & ((std::uint64_t{1} << n) - 1);
}

TEST(BitIo, WordWriterMatchesOneBitReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto fields = random_fields(seed, static_cast<int>(seed) * 7);
    ReferenceBitWriter ref;
    std::vector<std::uint8_t> out;
    coding::BitWriter w(out);
    for (const auto& [v, n] : fields) {
      ref.bits(v, n);
      w.bits(v, n);
    }
    w.finish();
    ASSERT_EQ(out, ref.out) << "seed " << seed;
  }
}

TEST(BitIo, ReaderReadsBackFromEveryBitOffsetWithinTheStream) {
  const auto fields = random_fields(99, 200);
  for (int offset = 0; offset < 64; ++offset) {
    std::vector<std::uint8_t> bytes;
    coding::BitWriter w(bytes);
    w.bits(0x5A5A5A5A5A5A5A5Aull, offset);
    for (const auto& [v, n] : fields) w.bits(v, n);
    w.finish();
    // An exactly sized heap copy: a read past the last byte is an ASan
    // report, not a silent pass.
    const std::size_t size = bytes.size();
    const auto exact = std::make_unique<std::uint8_t[]>(size);
    std::copy(bytes.begin(), bytes.end(), exact.get());
    std::size_t pos = static_cast<std::size_t>(offset);
    for (const auto& [v, n] : fields) {
      ASSERT_EQ(coding::read_bits(exact.get(), size, pos, n), low_bits(v, n))
          << "offset " << offset;
    }
    EXPECT_LE((pos + 7) / 8, size);
  }
}

// ---- Head buffers --------------------------------------------------------

TEST(HeadBuffer, OnePointPutsGrowTheHeadGeometrically) {
  Store store;
  const Store::Handle h = store.series("m", {{"host", "c400-000"}});
  g_allocations = 0;
  g_counting = true;
  for (int i = 0; i < 1000; ++i) {
    const DataPoint p{i * util::kSecond, static_cast<double>(i)};
    store.put(h, std::span<const DataPoint>(&p, 1));
  }
  g_counting = false;
  // Doubling from one point: 11 reallocations reach 1024. An exact
  // reserve per put would allocate 1000 times.
  EXPECT_LE(g_allocations.load(), 12u);
  EXPECT_EQ(store.num_points(), 1000u);
}

// ---- Segment flush -------------------------------------------------------

TEST(SegmentFlush, AllocatesAFewTimesPerSeries) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "coding_flush_allocs";
  std::filesystem::remove_all(dir);
  StoreOptions o;
  o.data_dir = dir.string();
  o.block_points = 16;
  Store store(o);
  constexpr std::size_t kSeries = 400;
  std::vector<DataPoint> pts(o.block_points);
  for (std::size_t s = 0; s < kSeries; ++s) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      pts[i] = {static_cast<util::SimTime>(i) * util::kMinute,
                static_cast<double>(s + i)};
    }
    // The ingest sink's key shape: (host, type, device, event).
    store.put_batch("taccstats.cpu.user",
                    {{"host", "c400-" + std::to_string(s)},
                     {"type", "cpu"},
                     {"device", std::to_string(s % 16)},
                     {"event", "user"}},
                    pts);
  }
  ASSERT_EQ(store.storage_stats().sealed_blocks, kSeries);

  g_allocations = 0;
  g_counting = true;
  store.flush();
  g_counting = false;
  // The segment is written from the store's own keys, record by record,
  // and read back as views: what is left per series is its slice's block
  // list and the mapped block that replaces the in-memory one.
  EXPECT_LE(g_allocations.load(), 8 * kSeries);
  EXPECT_EQ(store.disk_stats().persisted_points, kSeries * o.block_points);
}

}  // namespace
}  // namespace tacc::tsdb

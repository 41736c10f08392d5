#include "util/simd_scan.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tacc::util {

namespace {

void classify_scalar(const char* block, ScanMasks& out) noexcept {
  std::uint64_t ws = 0;
  std::uint64_t nl = 0;
  for (int i = 0; i < 64; ++i) {
    const char c = block[i];
    ws |= static_cast<std::uint64_t>(c == ' ' || c == '\t') << i;
    nl |= static_cast<std::uint64_t>(c == '\n') << i;
  }
  out.ws = ws;
  out.nl = nl;
}

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("sse2"))) void classify_sse2(const char* block,
                                                   ScanMasks& out) noexcept {
  const __m128i sp = _mm_set1_epi8(' ');
  const __m128i tb = _mm_set1_epi8('\t');
  const __m128i lf = _mm_set1_epi8('\n');
  std::uint64_t ws = 0;
  std::uint64_t nl = 0;
  for (int i = 0; i < 4; ++i) {
    const __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(block + 16 * i));
    const __m128i is_ws =
        _mm_or_si128(_mm_cmpeq_epi8(v, sp), _mm_cmpeq_epi8(v, tb));
    ws |= static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(_mm_movemask_epi8(is_ws)))
          << (16 * i);
    nl |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              _mm_movemask_epi8(_mm_cmpeq_epi8(v, lf))))
          << (16 * i);
  }
  out.ws = ws;
  out.nl = nl;
}

__attribute__((target("avx2"))) void classify_avx2(const char* block,
                                                   ScanMasks& out) noexcept {
  const __m256i sp = _mm256_set1_epi8(' ');
  const __m256i tb = _mm256_set1_epi8('\t');
  const __m256i lf = _mm256_set1_epi8('\n');
  std::uint64_t ws = 0;
  std::uint64_t nl = 0;
  for (int i = 0; i < 2; ++i) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(block + 32 * i));
    const __m256i is_ws =
        _mm256_or_si256(_mm256_cmpeq_epi8(v, sp), _mm256_cmpeq_epi8(v, tb));
    ws |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              _mm256_movemask_epi8(is_ws)))
          << (32 * i);
    nl |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, lf))))
          << (32 * i);
  }
  out.ws = ws;
  out.nl = nl;
}

#endif  // x86

/// Capability rank for clamping forced modes (Auto handled separately).
int mode_rank(ScanMode m) noexcept {
  switch (m) {
    case ScanMode::Avx2:
      return 2;
    case ScanMode::Sse2:
      return 1;
    default:
      return 0;
  }
}

ScanMode detect() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return ScanMode::Avx2;
  // Guaranteed on x86_64, but __i386__ also lands here and pre-SSE2 CPUs
  // exist there — check rather than assume.
  if (__builtin_cpu_supports("sse2")) return ScanMode::Sse2;
#endif
  return ScanMode::Scalar;
}

}  // namespace

ScanMode detected_scan_mode() noexcept {
  static const ScanMode mode = detect();
  return mode;
}

ScanMode resolve_scan_mode(ScanMode requested) noexcept {
  const ScanMode best = detected_scan_mode();
  if (requested == ScanMode::Auto) return best;
  return mode_rank(requested) <= mode_rank(best) ? requested : best;
}

std::string_view scan_mode_name(ScanMode mode) noexcept {
  switch (mode) {
    case ScanMode::Scalar:
      return "scalar";
    case ScanMode::Sse2:
      return "sse2";
    case ScanMode::Avx2:
      return "avx2";
    default:
      return "auto";
  }
}

ScanClassifyFn scan_classify_fn(ScanMode mode) noexcept {
  switch (resolve_scan_mode(mode)) {
#if defined(__x86_64__) || defined(__i386__)
    case ScanMode::Avx2:
      return &classify_avx2;
    case ScanMode::Sse2:
      return &classify_sse2;
#endif
    default:
      return &classify_scalar;
  }
}

SimdScanner::SimdScanner(std::string_view text, ScanMode mode) noexcept
    : data_(text.data()),
      size_(text.size()),
      mode_(resolve_scan_mode(mode)) {
  classify_ = scan_classify_fn(mode_);
}

void SimdScanner::load_window(std::size_t pos) noexcept {
  const std::size_t w = pos >> 6;
  if (w == window_) return;
  window_ = w;
  const std::size_t base = w << 6;
  if (base + 64 <= size_) {
    classify_(data_ + base, masks_);
  } else {
    // Tail window: classify a zero-padded copy. Padding bytes are NUL, so
    // they contribute no delimiter bits; the cursor never reads content
    // past size_.
    char buf[64] = {0};
    std::memcpy(buf, data_ + base, size_ - base);
    classify_(buf, masks_);
  }
}

bool SimdScanner::next_line(std::vector<std::string_view>& fields) {
  fields.clear();
  if (pos_ >= size_) return false;
  line_begin_ = pos_;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t tok_start = kNone;
  std::size_t i = pos_;
  while (i < size_) {
    load_window(i);
    const std::size_t base = i & ~static_cast<std::size_t>(63);
    std::size_t rel = i - base;
    const std::uint64_t ws = masks_.ws;
    const std::uint64_t nl = masks_.nl;
    while (rel < 64) {
      const std::uint64_t live = ~std::uint64_t{0} << rel;
      if (tok_start == kNone) {
        // Between tokens: the next non-ws bit is a token start, a
        // newline, or (in the tail window) zero padding = end of input.
        const std::uint64_t stop = ~ws & live;
        if (stop == 0) break;
        rel = static_cast<std::size_t>(std::countr_zero(stop));
        if (base + rel >= size_) {
          i = size_;
          goto eof;
        }
        if ((nl >> rel) & 1) {
          line_end_ = base + rel;
          pos_ = line_end_ + 1;
          return true;
        }
        tok_start = base + rel;
      } else {
        // Inside a token: it ends at the next ws or nl bit. Padding bits
        // are zero, so an unterminated final token runs to end-of-input
        // via the eof path below.
        const std::uint64_t delim = (ws | nl) & live;
        if (delim == 0) break;
        rel = static_cast<std::size_t>(std::countr_zero(delim));
        fields.push_back(
            std::string_view(data_ + tok_start, base + rel - tok_start));
        tok_start = kNone;
      }
    }
    i = base + 64;
  }
eof:
  if (tok_start != kNone) {
    fields.push_back(std::string_view(data_ + tok_start, size_ - tok_start));
  }
  line_end_ = size_;
  pos_ = size_;
  return true;
}

}  // namespace tacc::util

// SIMD newline/whitespace scanning for the raw-log decode hot path.
//
// The raw stats format is line-oriented text: a digit-led timestamp line
// followed by "type device v0 v1 ..." data rows. Parsing it used to walk
// the buffer char-by-char and allocate a std::vector<std::string_view>
// per line (util::split_ws); at archive scale that tokenization is the
// ingest bottleneck. SimdScanner instead classifies the input 64 bytes at
// a time into two bitmasks — whitespace (' ', '\t') and newline ('\n') —
// using AVX2 or SSE2 compares, then walks the masks with ctz to emit
// token spans. Only the 64-byte classify kernel differs between modes;
// every byte of cursor logic is shared, so the emitted line/token spans
// are byte-identical across Scalar/Sse2/Avx2 by construction (and a
// property test asserts it on seeded random inputs).
//
// Mode selection: the widest kernel the CPU supports is picked at runtime
// (ScanMode::Auto); callers may force a mode, which keeps the fallback
// paths tested on AVX2 hardware. Forcing a mode the CPU lacks falls back
// to the widest supported one.
//
// Thread-safety: a SimdScanner instance is single-threaded (it is a
// cursor); the mode-detection helpers are safe from any thread.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace tacc::util {

/// Which classify kernel to use. Auto = widest the CPU supports.
enum class ScanMode : std::uint8_t { Auto, Scalar, Sse2, Avx2 };

/// The widest kernel this CPU can run (never Auto).
ScanMode detected_scan_mode() noexcept;

/// Resolves Auto to the detected mode and clamps a forced mode the CPU
/// cannot run down to the widest supported one.
ScanMode resolve_scan_mode(ScanMode requested) noexcept;

/// Human-readable mode name ("scalar", "sse2", "avx2").
std::string_view scan_mode_name(ScanMode mode) noexcept;

/// Delimiter bitmasks for one 64-byte block: bit i set iff byte i is the
/// class. ws covers ' ' and '\t'; nl covers '\n'. Everything else
/// (including '\r') is token content, exactly like util::split_ws +
/// util::split_lines.
struct ScanMasks {
  std::uint64_t ws = 0;
  std::uint64_t nl = 0;
};

/// Classifies one full 64-byte block (must be readable) into masks.
using ScanClassifyFn = void (*)(const char* block, ScanMasks& out) noexcept;

/// The classify kernel for a (resolved) mode. Exposed so tests can
/// compare kernels directly on crafted blocks.
ScanClassifyFn scan_classify_fn(ScanMode mode) noexcept;

/// Forward-only line/token cursor over a text buffer.
///
/// next_line() fills `fields` (cleared first) with the whitespace-split
/// tokens of the next line and returns true; it returns false at end of
/// input. Line boundary semantics match util::split_lines (a trailing
/// '\n' does not produce a final empty line; a final unterminated line
/// does count), and token semantics match util::split_ws (runs of
/// ' '/'\t' merge, empty fields dropped). `fields` is caller-owned and
/// reused so the steady-state scan performs zero heap allocations once
/// its capacity has grown to the widest line.
class SimdScanner {
 public:
  explicit SimdScanner(std::string_view text,
                       ScanMode mode = ScanMode::Auto) noexcept;

  bool next_line(std::vector<std::string_view>& fields);

  /// Byte offsets of the current line (the one the last successful
  /// next_line call scanned) within the text, end-exclusive, '\n' not
  /// included.
  std::size_t line_begin() const noexcept { return line_begin_; }
  std::size_t line_end() const noexcept { return line_end_; }
  /// The current line's raw content.
  std::string_view line() const noexcept {
    return std::string_view(data_ + line_begin_, line_end_ - line_begin_);
  }

  /// The resolved (never Auto) mode this scanner runs with.
  ScanMode mode() const noexcept { return mode_; }

 private:
  /// Loads the classify masks for the 64-byte window containing byte
  /// `pos` (tail windows are classified from a zero-padded copy).
  void load_window(std::size_t pos) noexcept;

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;         // scan cursor, monotonically forward
  std::size_t line_begin_ = 0;
  std::size_t line_end_ = 0;
  std::size_t window_ = static_cast<std::size_t>(-1);  // loaded window index
  ScanMasks masks_;
  ScanClassifyFn classify_;
  ScanMode mode_;
};

}  // namespace tacc::util

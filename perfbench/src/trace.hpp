// In-memory spans for the traced benchmark run. Each thread records into
// its own SpanLog (no locking); logs are merged and written out after the
// run. A span's self time is its duration minus the part of its interval
// covered by its child spans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace tacc::perfbench {

struct Span {
  const char* name;     // static string: "<layer>.<call>"
  int parent;           // index in the same log, -1 for a root
  std::uint64_t group;  // job id or query id shared by related spans; 0 = none
  std::int64_t start_ns;
  std::int64_t end_ns;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One thread's spans. Spans nest by a stack: a span opened while another
/// is open becomes its child.
class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 14); }

  void open(const char* name, std::uint64_t group = 0) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, group, now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
  }
  void close() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope; a null log records nothing, so
/// the untraced run pays one branch per call.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::uint64_t group = 0) : log_(log) {
    if (log_ != nullptr) log_->open(name, group);
  }
  ~Scoped() {
    if (log_ != nullptr) log_->close();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
};

/// Self time of every span in `spans` (parallel to it): duration minus the
/// union of its children's intervals, each clipped to the parent's.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

/// Writes spans as tab-separated lines: thread, index, parent, group,
/// name, start and end in ns relative to `origin_ns`.
inline void write_spans(std::ostream& out, int thread,
                        const std::vector<Span>& spans,
                        std::int64_t origin_ns) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << thread << '\t' << i << '\t' << s.parent << '\t' << s.group << '\t'
        << s.name << '\t' << (s.start_ns - origin_ns) << '\t'
        << (s.end_ns - origin_ns) << '\n';
  }
}

}  // namespace tacc::perfbench

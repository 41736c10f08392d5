// Sample statistics for the paper-path benchmark: nearest-rank
// percentiles that refuse to report a tail they have too few samples for,
// and open-loop request timing measured from each request's due time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace tacc::perfbench {

using Clock = std::chrono::steady_clock;

/// A percentile is reported only when at least this many samples lie
/// beyond it (p99 needs >= 1000 samples, p90 >= 100, p50 >= 20).
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile `q` (0 < q < 100) of `samples`, or nullopt when
/// fewer than kMinTailSamples samples lie strictly above its rank.
inline std::optional<double> percentile(std::vector<double> samples,
                                        double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 100.0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a non-empty sample set (mean of the middle pair when even).
inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The median, over consecutive windows of `window` samples, of each
/// window's percentile `q`; a trailing window too small for `q` is
/// dropped. With samples in time order, a burst of machine noise then
/// moves only the windows it falls in, not the reported tail.
inline std::optional<double> windowed_percentile(
    const std::vector<double>& samples, std::size_t window, double q) {
  std::vector<double> per_window;
  for (std::size_t lo = 0; lo < samples.size(); lo += window) {
    const auto hi = std::min(samples.size(), lo + window);
    const auto p = percentile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                            samples.begin() + static_cast<std::ptrdiff_t>(hi)),
        q);
    if (p) per_window.push_back(*p);
  }
  if (per_window.empty()) return std::nullopt;
  return median(per_window);
}

/// A fixed-rate open-loop schedule: request i is due at start + i * period,
/// whether or not earlier requests have finished.
class Schedule {
 public:
  Schedule(Clock::time_point start, Clock::duration period)
      : start_(start), period_(period) {}
  Clock::time_point due(std::size_t i) const {
    return start_ + period_ * static_cast<Clock::rep>(i);
  }

 private:
  Clock::time_point start_;
  Clock::duration period_;
};

/// One open-loop request's timeline. Latency runs from the due time, so a
/// stall that delays later sends is charged to those requests too; the
/// generator's own lateness is reported separately.
struct OpenLoopTiming {
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point started;  // service began (dequeued by a worker)
  Clock::time_point done;

  static double ms(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  }
  double latency_ms() const { return ms(done - due); }
  double late_ms() const { return ms(sent - due); }
  double queue_wait_ms() const { return ms(started - due); }
  double service_ms() const { return ms(done - started); }
};

}  // namespace tacc::perfbench

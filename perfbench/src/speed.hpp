// Host-speed scaling for the paper-path benchmark. On a shared VM the host
// sets how fast each vCPU runs: the same day took 9.5 s in one run and
// 14.9 s a few minutes earlier, and the speed moves within a run too. So
// the benchmark runs a fixed piece of work, the speed probe, between
// slices of the work it measures, and scales each slice to the speed at
// which the probe takes kProbeRefS. A slice is scaled by the probes on
// either side of it, taken on the same thread.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "stats.hpp"

namespace tacc::perfbench {

/// The probe's CPU time on the reference host, a 4-vCPU x86 VM at a quiet
/// time. A scaled time reads as if measured at the speed where the probe
/// takes this long.
inline constexpr double kProbeRefS = 1.6e-3;

/// CPU time the calling thread has used, in seconds.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// Keeps the probe's result live, so the compiler cannot drop its work.
inline volatile double probe_sink;

/// One run of the speed probe on the calling thread, in seconds of CPU
/// time: hash-map updates, a sort and number formatting on fixed input,
/// the kinds of work the program does (about 1.6 ms on the reference host).
inline double probe_once() {
  const double t0 = thread_cpu_s();
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (std::uint64_t i = 0; i < 4000; ++i) counts[next() % 8000] += i;
  std::vector<double> values(10000);
  for (double& v : values) v = double(next() % 1000000) / 7.0;
  std::sort(values.begin(), values.end());
  char buf[32];
  double sum = 0.0;
  for (std::size_t i = 0; i < 2000; ++i) {
    std::snprintf(buf, sizeof buf, "%.6f", values[i * 5]);
    sum += std::strtod(buf, nullptr);
  }
  probe_sink = sum + double(counts.size());
  return thread_cpu_s() - t0;
}

/// The speed probes of one thread, and the factors that scale a time
/// measured on that thread between two of them.
class SpeedScale {
 public:
  using Probe = double (*)();

  /// Probes once, so a time measured from now on has a probe before it.
  explicit SpeedScale(Probe run = &probe_once) : run_(run) { probe(); }

  /// Runs the probe, twice, and keeps the better run (a preemption can only
  /// slow one down).
  void probe() {
    const auto t0 = Clock::now();
    probes_.push_back(std::min(run_(), run_()));
    probing_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
  }

  /// The latest probe. A time measured from now until the next probe is
  /// scaled by factor(last()).
  std::size_t last() const { return probes_.size() - 1; }

  /// kProbeRefS over the mean of probe k and the probe after it (probe k
  /// alone when no probe followed).
  double factor(std::size_t k) const {
    const double p = k + 1 < probes_.size()
                         ? 0.5 * (probes_[k] + probes_[k + 1])
                         : probes_[k];
    return kProbeRefS / p;
  }

  /// The median probe, in seconds: how fast the host ran this thread.
  double median_probe_s() const { return median(probes_); }
  /// Wall time spent probing.
  double probing_s() const { return probing_s_; }

 private:
  Probe run_;
  std::vector<double> probes_;
  double probing_s_ = 0.0;
};

/// Wall time of a stretch of work cut into slices, with a probe between
/// each two: cut() ends the current slice, probes and starts the next.
class SlicedTimer {
 public:
  /// Starts the first slice; `speed` has just probed.
  explicit SlicedTimer(SpeedScale& speed)
      : speed_(speed), start_(Clock::now()) {}

  void cut() {
    const auto end = Clock::now();
    const double s = std::chrono::duration<double>(end - start_).count();
    const std::size_t k = speed_.last();
    speed_.probe();
    raw_s_ += s;
    scaled_s_ += s * speed_.factor(k);
    start_ = Clock::now();
  }

  /// Total wall time of the finished slices, probes left out.
  double raw_s() const { return raw_s_; }
  /// The same, each slice scaled by the probes around it.
  double scaled_s() const { return scaled_s_; }

 private:
  SpeedScale& speed_;
  Clock::time_point start_;
  double raw_s_ = 0.0;
  double scaled_s_ = 0.0;
};

}  // namespace tacc::perfbench

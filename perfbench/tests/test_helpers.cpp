// Tests of the benchmark's own statistics, tracing and speed-scaling
// helpers. Exits nonzero on the first failure; run by run.py before every
// measurement.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "speed.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace tacc::perfbench;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      std::exit(1);                                                     \
    }                                                                   \
  } while (0)

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_needs_ten_samples_beyond_it() {
  // p99 of 1..1000 is rank 990, with exactly ten samples above it.
  const auto p99 = percentile(one_to(1000), 99);
  CHECK(p99 && *p99 == 990.0);
  CHECK(!percentile(one_to(999), 99));  // rank 990, only nine above
  CHECK(percentile(one_to(100), 90) == 90.0);
  CHECK(!percentile(one_to(99), 90));
  CHECK(percentile(one_to(20), 50) == 10.0);
  CHECK(!percentile(one_to(19), 50));
  CHECK(!percentile({}, 50));
  // Five windows of 1000; a burst in one window leaves the median p99.
  std::vector<double> windows;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) windows.push_back(w == 2 ? 1e6 : i);
  }
  windows.push_back(5.0);  // a trailing window too small for a p99
  CHECK(windowed_percentile(windows, 1000, 99) == 990.0);
  CHECK(!windowed_percentile(one_to(999), 1000, 99));
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void open_loop_timing_runs_from_the_due_time() {
  const auto t0 = Clock::time_point{};
  const Schedule schedule(t0, std::chrono::milliseconds(10));
  CHECK(schedule.due(0) == t0);
  CHECK(schedule.due(3) == t0 + std::chrono::milliseconds(30));
  // Sent 5 ms late, queued 2 ms more, served in 1 ms: the request is
  // charged 8 ms, of which the generator caused 5.
  OpenLoopTiming t;
  t.due = schedule.due(1);
  t.sent = t.due + std::chrono::milliseconds(5);
  t.started = t.sent + std::chrono::milliseconds(2);
  t.done = t.started + std::chrono::milliseconds(1);
  CHECK(t.latency_ms() == 8.0);
  CHECK(t.late_ms() == 5.0);
  CHECK(t.queue_wait_ms() == 7.0);
  CHECK(t.service_ms() == 1.0);
}

void self_time_subtracts_the_union_of_children() {
  // root [0,100) with children [10,30) and [20,50) (overlapping: union
  // 40) and [90,120) (clipped to 10). Grandchild [12,18) inside the
  // first child.
  const std::vector<Span> spans = {
      {"root", -1, 0, 0, 100},  {"a", 0, 1, 10, 30}, {"b", 0, 2, 20, 50},
      {"c", 0, 3, 90, 120},     {"a.x", 1, 1, 12, 18},
  };
  const auto self = self_times(spans);
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 20 - 6);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 6);
}

void span_log_nests_by_scope() {
  SpanLog log;
  {
    Scoped outer(&log, "outer");
    { Scoped inner(&log, "inner", 7); }
  }
  { Scoped none(nullptr, "ignored"); }
  const auto& s = log.spans();
  CHECK(s.size() == 2);
  CHECK(s[0].parent == -1 && s[1].parent == 0 && s[1].group == 7);
  CHECK(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
  const auto self = self_times(s);
  CHECK(self[0] + self[1] == s[0].end_ns - s[0].start_ns);
}

// Probe runs handed out in order; SpeedScale keeps the better of each pair.
const double kRuns[] = {2e-3, 3e-3, 4e-3, 4e-3, 9e-3, 1e-3};
std::size_t next_run = 0;
double scripted_probe() { return kRuns[next_run++]; }
double reference_probe() { return kProbeRefS; }
double half_speed_probe() { return 2 * kProbeRefS; }

void speed_scale_uses_the_probes_around_a_time() {
  SpeedScale speed(&scripted_probe);  // probe 0: 2 ms
  CHECK(speed.last() == 0);
  CHECK(speed.factor(0) == kProbeRefS / 2e-3);  // no later probe yet
  speed.probe();                                // probe 1: 4 ms
  speed.probe();                                // probe 2: 1 ms
  CHECK(speed.last() == 2);
  CHECK(speed.factor(0) == kProbeRefS / 3e-3);
  CHECK(speed.factor(1) == kProbeRefS / 2.5e-3);
  CHECK(speed.median_probe_s() == 2e-3);
  CHECK(speed.probing_s() >= 0.0);

  // At the reference speed a scaled time is the time as measured; at half
  // that speed it is half of it.
  SpeedScale same(&reference_probe);
  SlicedTimer at_ref(same);
  at_ref.cut();
  at_ref.cut();
  CHECK(at_ref.scaled_s() == at_ref.raw_s());
  SpeedScale slow(&half_speed_probe);
  SlicedTimer at_half(slow);
  at_half.cut();
  CHECK(at_half.scaled_s() == 0.5 * at_half.raw_s());
  CHECK(slow.last() == 1);
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond_it();
  open_loop_timing_runs_from_the_due_time();
  self_time_subtracts_the_union_of_children();
  span_log_nests_by_scope();
  speed_scale_uses_the_probes_around_a_time();
  std::puts("perfbench_selftest: all checks passed");
  return 0;
}

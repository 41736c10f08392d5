#include "pipeline/flags.hpp"

#include <cmath>
#include <cstdio>

namespace tacc::pipeline {
namespace {

/// A slow start reads as a compile step only when the job did not also
/// collapse at the end (that is the tail-drop rule's case).
bool tail_kept(const JobMetrics& m, const FlagThresholds& t) {
  return !std::isnan(m.TailDrop) && m.TailDrop >= t.tail_ratio;
}

/// Vectorization is judged only for jobs that do FP work (the FP-active
/// cut compute_metrics also uses for its RampUp/TailDrop windows).
bool fp_active(const JobMetrics& m, const FlagThresholds&) {
  return !std::isnan(m.flops) && m.flops > 0.1;
}

}  // namespace

std::span<const FlagRule> flag_rules() {
  using T = FlagThresholds;
  using M = JobMetrics;
  static const FlagRule rules[] = {
      {"high_metadata_rate", "metadata rate", &M::MetaDataRate,
       &T::metadata_rate, Fails::Above, nullptr, false, 1.0,
       "peak MDS request rate %.0f reqs/s stresses the filesystem"},
      {"high_gige", "GigE bandwidth", &M::GigEBW, &T::gige_mb_s,
       Fails::Above, nullptr, false, 1.0,
       "%.1f MB/s over Ethernet suggests a user MPI build not using "
       "InfiniBand"},
      {"largemem_underuse", "largemem footprint", &M::MemUsage,
       &T::largemem_min_gb, Fails::Below, nullptr, true, 1.0,
       "job in the 1 TB largemem queue used only %.1f GB"},
      {"idle_nodes", "node balance (idle)", &M::idle, &T::idle_ratio,
       Fails::Below, nullptr, false, 1.0,
       "node CPU usage imbalance (min/max = %.2f): some reserved nodes "
       "are idle"},
      {"cpu_time_variation", "time balance (catastrophe)", &M::catastrophe,
       &T::catastrophe_ratio, Fails::Below, nullptr, false, 1.0,
       "CPU usage varied strongly over time (min/max = %.2f)"},
      {"cpu_ramp_up", "ramp-up", &M::RampUp, &T::ramp_ratio, Fails::Below,
       tail_kept, false, 1.0,
       "slow start (first window %.2f of peak): likely a compile step "
       "before the run"},
      {"cpu_tail_drop", "tail drop", &M::TailDrop, &T::tail_ratio,
       Fails::Below, nullptr, false, 1.0,
       "CPU usage collapsed before the job ended (last window %.2f of "
       "peak): likely an application failure"},
      {"high_cpi", "cycles per instruction", &M::cpi, &T::high_cpi,
       Fails::Above, nullptr, false, 1.0,
       "%.1f cycles per instruction: memory layout or I/O pattern may "
       "not be performant"},
      {"low_vectorization", "vectorization", &M::VecPercent, &T::low_vec,
       Fails::Below, fp_active, false, 100.0,
       "only %.2f%% of FP work vectorized"},
  };
  return rules;
}

Verdict judge(const FlagRule& rule, std::string_view queue,
              const JobMetrics& m, const FlagThresholds& t) {
  if (rule.largemem_only && queue != "largemem") return Verdict::Absent;
  const double v = m.*rule.metric;
  if (std::isnan(v) || (rule.guard != nullptr && !rule.guard(m, t))) {
    return Verdict::Unknown;
  }
  const double limit = t.*rule.threshold;
  const bool fail = rule.fails == Fails::Above ? v > limit : v < limit;
  return fail ? Verdict::Fail : Verdict::Pass;
}

std::vector<Flag> evaluate_flags(const workload::AccountingRecord& acct,
                                 const JobMetrics& m,
                                 const FlagThresholds& t) {
  std::vector<Flag> flags;
  for (const FlagRule& rule : flag_rules()) {
    if (judge(rule, acct.queue, m, t) != Verdict::Fail) continue;
    char detail[128];
    std::snprintf(detail, sizeof detail, rule.detail,
                  m.*rule.metric * rule.detail_scale);
    flags.push_back({rule.name, detail});
  }
  return flags;
}

std::string flag_names(const std::vector<Flag>& flags) {
  std::string out;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (i) out += ',';
    out += flags[i].name;
  }
  return out;
}

}  // namespace tacc::pipeline

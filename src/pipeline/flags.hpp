// Flag rules (paper section V-A): every job's metrics are tested against
// thresholds chosen with system administrators and consultants; flagged
// jobs appear in a sublist of every portal search and in the daily report.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/metrics.hpp"
#include "workload/jobs.hpp"

namespace tacc::pipeline {

struct Flag {
  std::string name;    // rule key, e.g. "high_metadata_rate"
  std::string detail;  // human-readable explanation with the offending value
};

struct FlagThresholds {
  double metadata_rate = 10000.0;   // reqs/s node-summed peak
  double gige_mb_s = 1.0;           // Ethernet MPI suspicion
  double largemem_min_gb = 64.0;    // minimum justified use of a 1 TB node
  double idle_ratio = 0.15;         // min/max node CPU_Usage
  double catastrophe_ratio = 0.25;  // min/max interval CPU usage
  double ramp_ratio = 0.30;         // first/peak interval CPU usage
  double tail_ratio = 0.30;         // last/peak interval CPU usage
  double high_cpi = 3.0;            // cycles per instruction
  double low_vec = 0.01;            // VecPercent considered unvectorized
};

/// Which side of its threshold fails a rule (strictly past it).
enum class Fails { Above, Below };

/// One flag rule. evaluate_flags() and the detail page's threshold report
/// (portal::threshold_report) both walk flag_rules(), so a report row
/// reads FAIL exactly when its flag fires.
struct FlagRule {
  const char* name;                   // flag key, e.g. "high_metadata_rate"
  const char* label;                  // report row, e.g. "metadata rate"
  double JobMetrics::*metric;         // the Table I metric tested
  double FlagThresholds::*threshold;  // the boundary it is tested against
  Fails fails;
  /// A condition on other metrics the rule needs, or null. Where it does
  /// not hold the flag cannot fire and the report row reads n/a.
  bool (*guard)(const JobMetrics&, const FlagThresholds&);
  bool largemem_only;   // the rule exists only in the largemem queue
  double detail_scale;  // multiplies the value printed in `detail`
  const char* detail;   // printf format of Flag::detail, given the value
};

/// The rules, in flag order.
std::span<const FlagRule> flag_rules();

/// A rule's verdict on one job. Absent: the rule does not exist in the
/// job's queue. Unknown: the metric is NaN or the guard does not hold.
/// Fail: the flag fires.
enum class Verdict { Absent, Unknown, Pass, Fail };

Verdict judge(const FlagRule& rule, std::string_view queue,
              const JobMetrics& metrics, const FlagThresholds& thresholds);

/// Evaluates every rule; returns the flags that fired (possibly empty).
std::vector<Flag> evaluate_flags(const workload::AccountingRecord& acct,
                                 const JobMetrics& metrics,
                                 const FlagThresholds& thresholds = {});

/// Joins flag names with commas (the DB column form).
std::string flag_names(const std::vector<Flag>& flags);

}  // namespace tacc::pipeline

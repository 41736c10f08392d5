// Computes the per-job metrics of paper Table I (plus the RAPL power
// breakdown and the procfs memory high-water mark the new version adds).
//
// Two metric families (section IV-A):
//  * "Average" metrics are Average Rates of Change: the relevant counter's
//    delta is accumulated over the job's lifetime on each node (with
//    per-interval wraparound correction for narrow hardware counters),
//    divided by elapsed time, then averaged over nodes. Because the
//    counters are cumulative this is insensitive to the sampling interval.
//  * "Maximum" metrics take per-interval deltas, sum them across nodes per
//    interval, and report the maximum interval rate — an approximation to
//    the peak instantaneous rate.
// Ratios (cpi, MDCWait, VecPercent, ...) are formed from the averaged
// quantities, not averaged per interval.
//
// Table I's "idle" wording conflicts with the body text; we implement the
// prose definition: idle = min-node CPU_Usage / max-node CPU_Usage, and
// catastrophe = min-interval / max-interval of the node-summed CPU usage,
// both in [0, 1] with small values flagging imbalance.
#pragma once

#include <cmath>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/jobmap.hpp"
#include "simhw/arch.hpp"

namespace tacc::pipeline {

/// All computed metrics, keyed by the Table I labels. Metrics whose device
/// data is absent (no Lustre client, unknown architecture, no Phi, 4-PMC
/// topology without LLC counters) are NaN.
struct JobMetrics {
  // Lustre
  double MetaDataRate = nan("");    // max MDS op rate (reqs/s, node-summed)
  double MDCReqs = nan("");         // avg MDS op rate (reqs/s per node)
  double OSCReqs = nan("");         // avg OSS op rate (reqs/s per node)
  double MDCWait = nan("");         // avg us per MDS op
  double OSCWait = nan("");         // avg us per OSS op
  double LLiteOpenClose = nan("");  // avg opens+closes per second per node
  double LnetAveBW = nan("");       // avg Lustre MB/s per node
  double LnetMaxBW = nan("");       // max Lustre MB/s (node-summed)
  // Network
  double InternodeIBAveBW = nan("");  // avg MPI MB/s per node (IB minus LNET)
  double InternodeIBMaxBW = nan("");  // max MPI MB/s (node-summed)
  double Packetsize = nan("");        // avg IB packet size (bytes)
  double Packetrate = nan("");        // avg IB packets/s per node
  double GigEBW = nan("");            // avg Ethernet MB/s per node
  // Processor
  double Load_All = nan("");      // avg loads/s per core
  double Load_L1Hits = nan("");   // avg L1 hits/s per core
  double Load_L2Hits = nan("");   // avg L2 hits/s per core
  double Load_LLCHits = nan("");  // avg LLC hits/s per core
  double cpi = nan("");           // cycles per instruction
  double cpld = nan("");          // cycles per L1D load
  double flops = nan("");         // avg GFLOP/s per node
  double VecPercent = nan("");    // vector FP / all FP instructions [0,1]
  double mbw = nan("");           // avg DRAM GB/s per node
  // Energy (RAPL; new in this version)
  double PkgWatts = nan("");   // avg package power per node (W)
  double CoreWatts = nan("");  // avg core (PP0) power per node (W)
  double DramWatts = nan("");  // avg DRAM power per node (W)
  // OS
  double MemUsage = nan("");     // max node memory used (GB), snapshots
  double MemHWM = nan("");       // procfs per-process high-water mark (GB)
  double CPU_Usage = nan("");    // avg fraction of time in user space
  double idle = nan("");         // min/max CPU_Usage over nodes [0,1]
  double catastrophe = nan("");  // min/max CPU usage over time [0,1]
  double RampUp = nan("");       // first-interval / peak-interval CPU usage;
                                 //  small = slow start (compile step)
  double TailDrop = nan("");     // last-interval / peak-interval CPU usage;
                                 //  small = mid-run death (failure)
  double MIC_Usage = nan("");    // avg Phi utilization [0,1]

  /// One Table I metric: its label and the member that holds it.
  struct Field { const char* label; double JobMetrics::*value; };
  /// Every metric in labels() order: the list labels() and as_map() read.
  static std::span<const Field> fields();

  /// The metrics as (Table I label -> value) for DB ingest / display.
  std::map<std::string, double> as_map() const;

  /// Ordered Table I labels (Lustre, Network, Processor, Energy, OS).
  static const std::vector<std::string>& labels();
};

/// One host's counter table: its records pivoted into (type, device) value
/// rows under the host's schemas. It holds the one counter-delta rule: each
/// device's delta is wrap-corrected at its schema width (collect::wrap_delta)
/// and scaled to canonical units, then the devices are summed in device
/// order. Table I, the Fig. 5 series and core::OnlineAnalyzer read every
/// delta and gauge through it. `schemas`, `records` and `arch` must outlive
/// the table, which points into them.
class HostExtract {
 public:
  /// `records` in time order; `arch` is the codename for width lookups.
  HostExtract(const std::vector<collect::Schema>& schemas,
              std::span<const collect::Record> records, std::string_view arch)
      : schemas_(&schemas), arch_(arch) {
    const std::size_t n = records.size();
    times_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      const auto& rec = records[r];
      times_.push_back(util::to_seconds(rec.time));
      for (const auto& block : rec.blocks) {
        auto& dev = data_[block.type][block.device];
        dev.resize(n);  // missing records stay null
        dev[r] = &block.values;
      }
    }
  }

  std::size_t num_records() const noexcept { return times_.size(); }
  double elapsed() const noexcept {
    return times_.size() >= 2 ? times_.back() - times_.front() : 0.0;
  }
  double interval_dt(std::size_t i) const noexcept {
    return times_[i + 1] - times_[i];
  }
  std::size_t num_intervals() const noexcept {
    return times_.size() >= 2 ? times_.size() - 1 : 0;
  }

  int num_devices(const std::string& type) const noexcept {
    const auto it = data_.find(type);
    return it == data_.end() ? 0 : static_cast<int>(it->second.size());
  }

  /// The schema for a type (from the host header), or nullptr.
  const collect::Schema* schema(std::string_view type) const noexcept {
    return collect::find_schema(*schemas_, type);
  }

  /// Per-interval delta of (type, key) summed over devices, wrap-corrected
  /// per device and scaled to canonical units. nullopt if the type or key
  /// is absent on this host.
  std::optional<std::vector<double>> interval_deltas(
      const std::string& type, const std::string& key) const {
    const collect::Schema* sch = schema(type);
    if (sch == nullptr) return std::nullopt;
    const auto idx = sch->index_of(key);
    if (!idx) return std::nullopt;
    const auto tit = data_.find(type);
    if (tit == data_.end()) return std::nullopt;
    const auto& entry = sch->entry(*idx);
    std::vector<double> out(num_intervals(), 0.0);
    for (const auto& [device, values] : tit->second) {
      for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        if (values[i] == nullptr || values[i + 1] == nullptr) continue;
        const std::uint64_t delta = collect::wrap_delta(
            (*values[i])[*idx], (*values[i + 1])[*idx], entry.width_bits);
        out[i] += static_cast<double>(delta) * entry.scale;
      }
    }
    return out;
  }

  /// Total delta over the records (sum of interval deltas).
  std::optional<double> total_delta(const std::string& type,
                                    const std::string& key) const {
    const auto deltas = interval_deltas(type, key);
    if (!deltas) return std::nullopt;
    double sum = 0.0;
    for (const double d : *deltas) sum += d;
    return sum;
  }

  /// Average rate over the records (total delta / elapsed). Over two
  /// records this is the one interval's rate.
  std::optional<double> rate(const std::string& type,
                             const std::string& key) const {
    if (elapsed() <= 0.0) return std::nullopt;
    const auto total = total_delta(type, key);
    if (!total) return std::nullopt;
    return *total / elapsed();
  }

  /// Gauge value of (type, key) summed over devices, per record.
  std::optional<std::vector<double>> gauge_series(
      const std::string& type, const std::string& key) const {
    const collect::Schema* sch = schema(type);
    if (sch == nullptr) return std::nullopt;
    const auto idx = sch->index_of(key);
    if (!idx) return std::nullopt;
    const auto tit = data_.find(type);
    if (tit == data_.end()) return std::nullopt;
    const auto& entry = sch->entry(*idx);
    std::vector<double> out(num_records(), 0.0);
    for (const auto& [device, values] : tit->second) {
      for (std::size_t r = 0; r < values.size(); ++r) {
        if (values[r] == nullptr) continue;
        out[r] += static_cast<double>((*values[r])[*idx]) * entry.scale;
      }
    }
    return out;
  }

  /// The PMC schema type for this host (the schema carrying the fixed
  /// "instructions" counter), or empty.
  std::string pmc_type() const {
    for (const auto& s : *schemas_) {
      if (s.index_of("instructions") && s.index_of("cycles")) {
        return s.type();
      }
    }
    return {};
  }

  /// Vector width (doubles per vector instruction) from the arch codename.
  double vector_width() const {
    for (const auto uarch : simhw::all_microarchs()) {
      const auto& spec = simhw::arch_spec(uarch);
      if (spec.codename == arch_) {
        return static_cast<double>(spec.vector_width_doubles);
      }
    }
    return 2.0;  // conservative SSE default
  }

 private:
  const std::vector<collect::Schema>* schemas_;
  std::string_view arch_;
  std::vector<double> times_;
  // type -> device -> per-record values (null = block missing).
  std::map<std::string, std::map<std::string, std::vector<
      const std::vector<std::uint64_t>*>>> data_;
};

/// Computes all metrics for a job. Requires at least two records on at
/// least one host; otherwise everything stays NaN.
JobMetrics compute_metrics(const JobData& data);

/// Per-node, per-interval series for the six panels of the paper's Fig. 5
/// job detail plots: Gigaflops, memory bandwidth (GB/s), memory usage (GB),
/// Lustre bandwidth (MB/s), internode InfiniBand traffic (MB/s), and CPU
/// user fraction.
struct NodeSeries {
  std::string hostname;
  std::vector<double> times;  // interval midpoints, seconds since epoch
  std::vector<double> gflops;
  std::vector<double> mem_bw_gbps;
  std::vector<double> mem_used_gb;
  std::vector<double> lustre_mbps;
  std::vector<double> ib_mpi_mbps;
  std::vector<double> cpu_user;
};

/// Extracts the Fig. 5 panel series for every node of a job.
std::vector<NodeSeries> job_timeseries(const JobData& data);

}  // namespace tacc::pipeline

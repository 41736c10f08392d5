#include "core/online.hpp"

#include <algorithm>
#include <array>
#include <iterator>

#include "pipeline/flags.hpp"
#include "pipeline/metrics.hpp"

namespace tacc::core {
namespace {

constexpr pipeline::FlagThresholds kThresholds{};
constexpr double kMB = 1.0e6;            // GigEBW's unit
constexpr double kMemoryPressure = 0.95;  // MemUsed / MemTotal: near-OOM

bool read_by_rules(const collect::RawBlock& block) {
  return block.type == "mdc" || block.type == "net" || block.type == "mem";
}

}  // namespace

void OnlineAnalyzer::on_chunk(const std::string& hostname,
                              const collect::HostLog& chunk) {
  util::MutexLock lock(mu_);
  collect::Record& last = hosts_[hostname];
  for (const auto& record : chunk.records) {
    ++records_;
    std::array<collect::Record, 2> pair{std::move(last), collect::Record{}};
    pair[1].time = record.time;
    std::copy_if(record.blocks.begin(), record.blocks.end(),
                 std::back_inserter(pair[1].blocks), read_by_rules);
    if (!pair[0].blocks.empty() && record.time > pair[0].time) {
      const pipeline::HostExtract table(chunk.schemas, pair, chunk.arch);
      auto fire = [&](const char* rule, double value) {
        alerts_.push_back({record.time, hostname, record.jobids, rule,
                           value});
      };
      const auto mdc = table.rate("mdc", "reqs");
      if (mdc && *mdc > kThresholds.metadata_rate) {
        fire("metadata_storm", *mdc);
        suspend_.insert(record.jobids.begin(), record.jobids.end());
      }
      const auto rx = table.rate("net", "rx_bytes");
      const auto tx = table.rate("net", "tx_bytes");
      if (rx && tx && (*rx + *tx) / kMB > kThresholds.gige_mb_s) {
        fire("gige_traffic", *rx + *tx);
      }
      // Memory pressure uses the instantaneous gauge, not a rate.
      const auto used = table.gauge_series("mem", "MemUsed");
      const auto total = table.gauge_series("mem", "MemTotal");
      if (used && total && total->back() > 0.0 &&
          used->back() / total->back() > kMemoryPressure) {
        fire("memory_pressure", used->back() / total->back());
      }
    }
    last = std::move(pair[1]);
  }
}

std::vector<Alert> OnlineAnalyzer::alerts() const {
  util::MutexLock lock(mu_);
  return alerts_;
}

std::set<long> OnlineAnalyzer::suspend_candidates() const {
  util::MutexLock lock(mu_);
  return suspend_;
}

std::size_t OnlineAnalyzer::records_analyzed() const {
  util::MutexLock lock(mu_);
  return records_;
}

}  // namespace tacc::core

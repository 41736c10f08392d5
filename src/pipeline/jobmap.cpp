#include "pipeline/jobmap.hpp"

#include <algorithm>

namespace tacc::pipeline {
namespace {

HostSeries slice_log(const collect::HostLog& log, long jobid) {
  HostSeries series;
  series.hostname = log.hostname;
  series.arch = log.arch;
  series.schemas = log.schemas;
  for (const auto& record : log.records) {
    if (std::find(record.jobids.begin(), record.jobids.end(), jobid) !=
        record.jobids.end()) {
      series.records.push_back(record);
    }
  }
  std::sort(series.records.begin(), series.records.end(),
            [](const collect::Record& a, const collect::Record& b) {
              return a.time < b.time;
            });
  return series;
}

}  // namespace

JobData extract_job(const transport::RawArchive& archive,
                    const workload::AccountingRecord& acct) {
  JobData data;
  data.acct = acct;
  for (const auto& hostname : acct.hostnames) {
    // Runs under the archive lock: slice_log must not call back into the
    // archive.
    archive.visit_log(hostname, [&](const collect::HostLog& log) {
      auto series = slice_log(log, acct.jobid);
      if (!series.records.empty()) data.hosts.push_back(std::move(series));
    });
  }
  return data;
}

JobData extract_job(const std::vector<collect::HostLog>& logs,
                    const workload::AccountingRecord& acct) {
  JobData data;
  data.acct = acct;
  for (const auto& log : logs) {
    if (std::find(acct.hostnames.begin(), acct.hostnames.end(),
                  log.hostname) == acct.hostnames.end()) {
      continue;
    }
    auto series = slice_log(log, acct.jobid);
    if (!series.records.empty()) data.hosts.push_back(std::move(series));
  }
  return data;
}

}  // namespace tacc::pipeline

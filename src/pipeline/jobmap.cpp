#include "pipeline/jobmap.hpp"

#include <algorithm>

namespace tacc::pipeline {
namespace {

collect::HostLog slice_log(const collect::HostLog& log, long jobid) {
  collect::HostLog slice;
  slice.hostname = log.hostname;
  slice.arch = log.arch;
  slice.schemas = log.schemas;
  for (const auto& record : log.records) {
    if (std::find(record.jobids.begin(), record.jobids.end(), jobid) !=
        record.jobids.end()) {
      slice.records.push_back(record);
    }
  }
  std::sort(slice.records.begin(), slice.records.end(),
            [](const collect::Record& a, const collect::Record& b) {
              return a.time < b.time;
            });
  return slice;
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
      auto slice = slice_log(log, acct.jobid);
      if (!slice.records.empty()) data.hosts.push_back(std::move(slice));
    });
  }
  return data;
}

}  // namespace tacc::pipeline

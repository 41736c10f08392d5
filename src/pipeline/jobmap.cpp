#include "pipeline/jobmap.hpp"

#include <algorithm>

namespace tacc::pipeline {
namespace {

/// Materializes a host's header and only the records tagged with one job.
class JobSink final : public collect::MaterializeSink {
 public:
  JobSink(collect::HostLog& slice, long jobid)
      : MaterializeSink(slice), jobid_(jobid) {}

  bool keep(const collect::RecordView& r) override {
    return std::find(r.jobids.begin(), r.jobids.end(), jobid_) !=
           r.jobids.end();
  }

 private:
  long jobid_;
};

}  // namespace

JobData extract_job(const transport::RawArchive& archive,
                    const workload::AccountingRecord& acct) {
  JobData data;
  data.acct = acct;
  for (const auto& hostname : acct.hostnames) {
    collect::HostLog slice;
    JobSink sink(slice, acct.jobid);
    archive.replay(hostname, sink);
    if (slice.records.empty()) continue;
    std::sort(slice.records.begin(), slice.records.end(),
              [](const collect::Record& a, const collect::Record& b) {
                return a.time < b.time;
              });
    data.hosts.push_back(std::move(slice));
  }
  return data;
}

}  // namespace tacc::pipeline

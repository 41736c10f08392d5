// Maps raw host record streams to jobs (paper section IV-A: "TACC Stats
// maps the raw output from each node to job ids"). A record belongs to a
// job when the scheduler job list captured at collection time contains the
// job id; this works on shared nodes too, where a record may belong to
// several jobs.
#pragma once

#include <vector>

#include "collect/rawfile.hpp"
#include "transport/archive.hpp"
#include "workload/jobs.hpp"

namespace tacc::pipeline {

/// Everything the metric stage needs for one job: per host, its header and
/// the records tagged with the job id, in time order.
struct JobData {
  workload::AccountingRecord acct;
  std::vector<collect::HostLog> hosts;
};

/// Extracts a job's records from the central archive using the accounting
/// record's host list, in accounting order. Hosts with no matching records
/// are omitted (e.g. a crashed node whose cron-mode data was lost), as are
/// hosts the archive does not know. Replays one host at a time
/// (RawArchive::replay) with a sink that skips the records of other jobs
/// without reading their blocks and builds only the job's: a concurrent
/// daemon-mode writer to that host waits for one host's replay, not for a
/// copy of the host's whole log.
JobData extract_job(const transport::RawArchive& archive,
                    const workload::AccountingRecord& acct);

}  // namespace tacc::pipeline

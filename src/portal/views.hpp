// Text renderings of the portal pages: the job list a query returns, the
// flagged sublist, the per-job detail view with its metric report, and the
// Fig. 4 query histograms.
#pragma once

#include <string>
#include <vector>

#include "db/table.hpp"
#include "pipeline/flags.hpp"
#include "pipeline/jobmap.hpp"

namespace tacc::portal {

/// The job-list table (paper section IV-B): Job ID, username, executable,
/// start/end, run time, queue, status, wayness, nodes, node hours. At most
/// `limit` rows are rendered (0 = all).
std::string job_list_view(const db::Table& jobs,
                          const std::vector<db::RowId>& rows,
                          std::size_t limit = 25);

/// The sublist of flagged jobs within a result set, with flag names.
std::string flagged_sublist(const db::Table& jobs,
                            const std::vector<db::RowId>& rows,
                            std::size_t limit = 25);
/// Row ids within `rows` that carry at least one flag.
std::vector<db::RowId> flagged_rows(const db::Table& jobs,
                                    const std::vector<db::RowId>& rows);

/// The per-job detail view: metadata plus every computed metric with its
/// threshold comparison (the "passed or failed comparison tests" report).
std::string job_detail_view(const db::Table& jobs, db::RowId row);

/// Detail view including the XALT environment section (modules and linked
/// libraries), which the paper notes is "only available if the XALT plugin
/// is enabled" — pass nullptr to render without it.
std::string job_detail_view(const db::Table& jobs, db::RowId row,
                            const db::Table* xalt_table);

/// The four automatic histograms of paper Fig. 4 for a result set:
/// jobs versus run time, node count, queue wait time, and maximum metadata
/// request rate.
std::string query_histograms(const db::Table& jobs,
                             const std::vector<db::RowId>& rows,
                             std::size_t bins = 12);

/// The per-process drill-down of the detail page (paper section IV-B:
/// "individual processes and their memory usage, cpu affinities, and
/// thread count"), rendered from the job's last records carrying ps
/// blocks — one row per process per node.
std::string process_view(const pipeline::JobData& data,
                         std::size_t limit = 40);

/// The threshold-comparison report of the detail page ("which of the
/// computed metrics passed or failed comparison tests"): one row per flag
/// rule that exists in the job's queue (pipeline::flag_rules) with its
/// threshold, the job's value, and PASS/FAIL. A row reads FAIL exactly
/// when its flag fires, and n/a when the metric is missing or the rule's
/// guard does not hold.
std::string threshold_report(const db::Table& jobs, db::RowId row,
                             const pipeline::FlagThresholds& thresholds = {});

}  // namespace tacc::portal

#include "portal/views.hpp"

#include <cmath>

#include "pipeline/flags.hpp"
#include "pipeline/metrics.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "xalt/xalt.hpp"

namespace tacc::portal {
namespace {

std::string time_cell(const db::Value& secs) {
  return util::format_time(secs.as_int() * util::kSecond);
}

}  // namespace

std::string job_list_view(const db::Table& jobs,
                          const std::vector<db::RowId>& rows,
                          std::size_t limit) {
  util::TextTable t;
  t.header({"Job ID", "User", "Exe", "Start", "Run time", "Queue", "Status",
            "Way", "Nodes", "Node hrs"});
  std::size_t shown = 0;
  for (const auto id : rows) {
    if (limit != 0 && shown++ >= limit) break;
    t.row({jobs.at(id, "jobid").to_string(), jobs.at(id, "user").as_text(),
           jobs.at(id, "exe").as_text(), time_cell(jobs.at(id, "start")),
           util::format_duration(util::from_seconds(
               jobs.at(id, "runtime").as_real())),
           jobs.at(id, "queue").as_text(), jobs.at(id, "status").as_text(),
           jobs.at(id, "wayness").to_string(),
           jobs.at(id, "nodes").to_string(),
           util::TextTable::num(jobs.at(id, "node_hours").as_real(), 4)});
  }
  std::string out = std::to_string(rows.size()) + " jobs matched";
  if (limit != 0 && rows.size() > limit) {
    out += " (showing first " + std::to_string(limit) + ")";
  }
  out += '\n';
  out += t.render();
  return out;
}

std::vector<db::RowId> flagged_rows(const db::Table& jobs,
                                    const std::vector<db::RowId>& rows) {
  std::vector<db::RowId> out;
  for (const auto id : rows) {
    if (!jobs.at(id, "flags").as_text().empty()) out.push_back(id);
  }
  return out;
}

std::string flagged_sublist(const db::Table& jobs,
                            const std::vector<db::RowId>& rows,
                            std::size_t limit) {
  const auto flagged = flagged_rows(jobs, rows);
  util::TextTable t;
  t.header({"Job ID", "User", "Exe", "Flags"});
  std::size_t shown = 0;
  for (const auto id : flagged) {
    if (limit != 0 && shown++ >= limit) break;
    t.row({jobs.at(id, "jobid").to_string(), jobs.at(id, "user").as_text(),
           jobs.at(id, "exe").as_text(), jobs.at(id, "flags").as_text()});
  }
  return std::to_string(flagged.size()) + " flagged jobs\n" + t.render();
}

std::string job_detail_view(const db::Table& jobs, db::RowId row) {
  std::string out;
  out += "Job " + jobs.at(row, "jobid").to_string() + " (" +
         jobs.at(row, "user").as_text() + ", " +
         jobs.at(row, "exe").as_text() + ")\n";
  out += "  queue=" + jobs.at(row, "queue").as_text() +
         " status=" + jobs.at(row, "status").as_text() +
         " nodes=" + jobs.at(row, "nodes").to_string() +
         " wayness=" + jobs.at(row, "wayness").to_string() + "\n";
  out += "  start=" + time_cell(jobs.at(row, "start")) +
         " end=" + time_cell(jobs.at(row, "end")) + " runtime=" +
         util::format_duration(
             util::from_seconds(jobs.at(row, "runtime").as_real())) +
         "\n";
  const std::string flags = jobs.at(row, "flags").as_text();
  out += "  flags: " + (flags.empty() ? std::string("(none)") : flags) + "\n";
  util::TextTable t;
  t.header({"Metric", "Value"});
  for (const auto& label : pipeline::JobMetrics::labels()) {
    const auto& v = jobs.at(row, label);
    t.row({label, v.is_null() ? "n/a" : util::TextTable::num(v.as_real(), 5)});
  }
  out += t.render();
  return out;
}

std::string job_detail_view(const db::Table& jobs, db::RowId row,
                            const db::Table* xalt_table) {
  std::string out = job_detail_view(jobs, row);
  if (xalt_table != nullptr) {
    if (const auto env =
            xalt::lookup(*xalt_table, jobs.at(row, "jobid").as_int())) {
      out += "Environment (XALT):\n";
      out += xalt::render_environment(*env);
    } else {
      out += "Environment (XALT): no record for this job\n";
    }
  }
  return out;
}

std::string process_view(const pipeline::JobData& data, std::size_t limit) {
  util::TextTable t;
  t.header({"Host", "PID", "Exe", "RSS MB", "HWM MB", "Threads",
            "Cpus_allowed"});
  std::size_t shown = 0;
  for (const auto& host : data.hosts) {
    // Use the last record carrying ps blocks (the richest snapshot).
    const collect::Record* best = nullptr;
    for (const auto& rec : host.records) {
      for (const auto& block : rec.blocks) {
        if (block.type == "ps") {
          best = &rec;
          break;
        }
      }
    }
    if (best == nullptr) continue;
    const collect::Schema* schema = nullptr;
    for (const auto& s : host.schemas) {
      if (s.type() == "ps") schema = &s;
    }
    if (schema == nullptr) continue;
    const auto rss = schema->index_of("vm_rss");
    const auto hwm = schema->index_of("vm_hwm");
    const auto threads = schema->index_of("threads");
    const auto cpus = schema->index_of("cpus_allowed");
    if (!rss || !hwm || !threads || !cpus) continue;
    for (const auto& block : best->blocks) {
      if (block.type != "ps") continue;
      if (limit != 0 && shown++ >= limit) {
        t.row({"...", "", "", "", "", "", ""});
        return t.render();
      }
      // Device is "<pid>:<name>".
      const auto colon = block.device.find(':');
      char mask[32];
      std::snprintf(mask, sizeof mask, "%llx",
                    static_cast<unsigned long long>(block.values[*cpus]));
      t.row({host.hostname, block.device.substr(0, colon),
             colon == std::string::npos ? "?"
                                        : block.device.substr(colon + 1),
             util::TextTable::num(
                 static_cast<double>(block.values[*rss]) / 1024.0, 4),
             util::TextTable::num(
                 static_cast<double>(block.values[*hwm]) / 1024.0, 4),
             std::to_string(block.values[*threads]), mask});
    }
  }
  return t.render();
}

std::string threshold_report(const db::Table& jobs, db::RowId row,
                             const pipeline::FlagThresholds& t) {
  pipeline::JobMetrics m;  // NULL columns stay NaN
  for (const auto& f : pipeline::JobMetrics::fields()) {
    const auto& v = jobs.at(row, f.label);
    if (!v.is_null()) m.*f.value = v.as_real();
  }
  const std::string& queue = jobs.at(row, "queue").as_text();
  util::TextTable table;
  table.header({"Test", "Threshold", "Value", "Result"});
  for (const auto& rule : pipeline::flag_rules()) {
    const pipeline::Verdict verdict = pipeline::judge(rule, queue, m, t);
    if (verdict == pipeline::Verdict::Absent) continue;
    const double v = m.*rule.metric;
    table.row({rule.label,
               std::string(rule.fails == pipeline::Fails::Above ? "<= "
                                                                : ">= ") +
                   util::TextTable::num(t.*rule.threshold, 4),
               std::isnan(v) ? "n/a" : util::TextTable::num(v, 4),
               verdict == pipeline::Verdict::Fail   ? "FAIL"
               : verdict == pipeline::Verdict::Pass ? "PASS"
                                                    : "n/a"});
  }
  return table.render();
}

std::span<const HistogramPanel> histogram_panels() {
  static const HistogramPanel panels[] = {
      {"Run time (hours)", "runtime", 1.0 / 3600.0},
      {"Nodes", "nodes", 1.0},
      {"Queue wait time (hours)", "queue_wait", 1.0 / 3600.0},
      {"Max metadata reqs (1k/s)", "MetaDataRate", 1.0 / 1000.0},
  };
  return panels;
}

std::string render_query_histograms(
    std::span<const std::vector<double>> panel_values, std::size_t bins) {
  const auto panels = histogram_panels();
  std::string out;
  for (std::size_t i = 0; i < panels.size() && i < panel_values.size(); ++i) {
    const auto& values = panel_values[i];
    const auto h = util::Histogram::of(
        std::span<const double>(values.data(), values.size()), bins);
    out += h.render(panels[i].title);
    out += "\n";
  }
  return out;
}

std::string query_histograms(const db::Table& jobs,
                             const std::vector<db::RowId>& rows,
                             std::size_t bins) {
  std::vector<std::vector<double>> panel_values;
  for (const auto& p : histogram_panels()) {
    auto values = jobs.column_values(p.column, rows);
    for (auto& v : values) v *= p.scale;
    panel_values.push_back(std::move(values));
  }
  return render_query_histograms(panel_values, bins);
}

}  // namespace tacc::portal

// Paper-shape calibration: a scaled-down population must reproduce the
// qualitative section V statistics. These are statistical assertions with
// generous bands — the benches report the precise values.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "pipeline/ingest.hpp"
#include "pipeline/minisim.hpp"
#include "portal/views.hpp"
#include "util/stats.hpp"
#include "workload/generator.hpp"

namespace tacc::pipeline {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  // One shared population for the whole suite (building it runs ~2.5k jobs
  // through the full stack).
  static void SetUpTestSuite() {
    workload::PopulationConfig config;
    config.num_jobs = 2500;
    config.storm_jobs = 40;
    config.seed = 2015;
    jobs_ = new std::vector<workload::JobSpec>(
        workload::generate_population(config));
    database_ = new db::Database();
    MiniSimOptions opts;
    opts.samples = 3;
    ingest_population(*database_, *jobs_, opts);
  }
  static void TearDownTestSuite() {
    delete jobs_;
    delete database_;
    jobs_ = nullptr;
    database_ = nullptr;
  }

  static const db::Table& jobs_table() {
    return database_->table(kJobsTable);
  }

  static std::vector<workload::JobSpec>* jobs_;
  static db::Database* database_;
};

std::vector<workload::JobSpec>* CalibrationTest::jobs_ = nullptr;
db::Database* CalibrationTest::database_ = nullptr;

TEST_F(CalibrationTest, AllJobsIngested) {
  EXPECT_EQ(jobs_table().num_rows(), jobs_->size());
}

TEST_F(CalibrationTest, VectorizationSplitMatchesPaper) {
  // Paper: 52% of jobs >1% vectorized; 25% >50% vectorized.
  const auto& t = jobs_table();
  const double total = static_cast<double>(t.num_rows());
  const double over1 =
      t.aggregate_where(db::Agg::Count, "",
                        {{"VecPercent", db::Op::Gt, db::Value(0.01)}});
  const double over50 =
      t.aggregate_where(db::Agg::Count, "",
                        {{"VecPercent", db::Op::Gt, db::Value(0.50)}});
  EXPECT_NEAR(over1 / total, 0.52, 0.11);
  EXPECT_NEAR(over50 / total, 0.25, 0.08);
}

TEST_F(CalibrationTest, MicAdoptionMatchesPaper) {
  // Paper: 1.3% of jobs used the Phi for more than 1% of cpu time.
  const auto& t = jobs_table();
  const double mic =
      t.aggregate_where(db::Agg::Count, "",
                        {{"MIC_Usage", db::Op::Gt, db::Value(0.01)}});
  EXPECT_NEAR(mic / static_cast<double>(t.num_rows()), 0.013, 0.01);
}

TEST_F(CalibrationTest, HighMemoryJobsAreRare) {
  // Paper: 3% of jobs used more than 20 GB of the 32 GB nodes.
  const auto& t = jobs_table();
  const double rows = static_cast<double>(t.num_rows());
  const double himem =
      t.aggregate_where(db::Agg::Count, "",
                        {{"MemUsage", db::Op::Gt, db::Value(20.0)},
                         {"queue", db::Op::Ne, db::Value("largemem")}});
  EXPECT_NEAR(himem / rows, 0.03, 0.025);
}

TEST_F(CalibrationTest, IdleNodeJobsAroundTwoPercent) {
  // Paper: over 2% of jobs had entirely idle nodes in Q4 2015.
  const auto& t = jobs_table();
  const double idle = t.aggregate_where(
      db::Agg::Count, "", {{"idle", db::Op::Lt, db::Value(0.15)}});
  const double frac = idle / static_cast<double>(t.num_rows());
  EXPECT_GT(frac, 0.01);
  EXPECT_LT(frac, 0.06);
}

TEST_F(CalibrationTest, CorrelationsAreNegativeLikeThePaper) {
  // Paper (110,438 production jobs): CPU_Usage vs MDCReqs r=-0.11,
  // vs OSCReqs r=-0.20, vs LnetAveBW r=-0.19.
  const auto& t = jobs_table();
  std::vector<db::RowId> production;
  for (const auto id : t.select({{"status", db::Op::Eq,
                                  db::Value("COMPLETED")},
                                 {"runtime", db::Op::Gt,
                                  db::Value(3600.0)}})) {
    const auto queue = t.at(id, "queue").as_text();
    if (queue == "normal" || queue == "largemem") production.push_back(id);
  }
  ASSERT_GT(production.size(), 300u);
  auto corr = [&](const char* metric) {
    std::vector<double> x, y;
    for (const auto id : production) {
      const auto& cpu = t.at(id, "CPU_Usage");
      const auto& v = t.at(id, metric);
      if (cpu.is_null() || v.is_null()) continue;
      x.push_back(cpu.as_real());
      y.push_back(v.as_real());
    }
    return util::pearson(std::span<const double>(x.data(), x.size()),
                         std::span<const double>(y.data(), y.size()));
  };
  const double r_mdc = corr("MDCReqs");
  const double r_osc = corr("OSCReqs");
  const double r_lnet = corr("LnetAveBW");
  EXPECT_LT(r_mdc, -0.02);
  EXPECT_LT(r_osc, -0.05);
  EXPECT_LT(r_lnet, -0.05);
  EXPECT_GT(r_mdc, -0.5);
  EXPECT_GT(r_osc, -0.5);
  EXPECT_GT(r_lnet, -0.5);
}

TEST_F(CalibrationTest, StormCohortVsWrfPopulation) {
  // Paper section V-B: the storm user's WRF jobs average 67% CPU and a
  // MetaDataRate of 563,905 vs the WRF population's 80% and 3,870; the
  // LLiteOpenClose ratio is ~30,884 vs 2.
  const auto& t = jobs_table();
  const auto storm = t.select({{"user", db::Op::Eq, db::Value("wrfuser42")}});
  std::vector<db::RowId> wrf_rest;
  for (const auto id :
       t.select({{"exe", db::Op::Eq, db::Value("wrf.exe")}})) {
    if (t.at(id, "user").as_text() != "wrfuser42") wrf_rest.push_back(id);
  }
  ASSERT_GT(storm.size(), 10u);
  ASSERT_GT(wrf_rest.size(), 50u);
  const double storm_cpu = t.aggregate(db::Agg::Avg, "CPU_Usage", storm);
  const double wrf_cpu = t.aggregate(db::Agg::Avg, "CPU_Usage", wrf_rest);
  const double storm_mdr = t.aggregate(db::Agg::Avg, "MetaDataRate", storm);
  const double wrf_mdr = t.aggregate(db::Agg::Avg, "MetaDataRate", wrf_rest);
  const double storm_oc = t.aggregate(db::Agg::Avg, "LLiteOpenClose", storm);
  const double wrf_oc = t.aggregate(db::Agg::Avg, "LLiteOpenClose", wrf_rest);
  EXPECT_NEAR(storm_cpu, 0.67, 0.06);
  EXPECT_NEAR(wrf_cpu, 0.80, 0.05);
  EXPECT_GT(storm_mdr, 50.0 * wrf_mdr);    // orders of magnitude apart
  EXPECT_GT(storm_oc, 1000.0 * wrf_oc);
  EXPECT_NEAR(storm_oc, 30884.0, 12000.0);
}

TEST_F(CalibrationTest, FlagBreakdownCoversPaperRules) {
  const auto& t = jobs_table();
  const auto gige = t.select(
      {{"flags", db::Op::Contains, db::Value("high_gige")}});
  const auto largemem = t.select(
      {{"flags", db::Op::Contains, db::Value("largemem_underuse")}});
  const auto storm = t.select(
      {{"flags", db::Op::Contains, db::Value("high_metadata_rate")}});
  EXPECT_GT(gige.size(), 0u);
  EXPECT_GT(largemem.size(), 0u);
  EXPECT_GE(storm.size(), 30u);  // at least the storm cohort
}

TEST_F(CalibrationTest, ReportFailRowsMatchStoredFlags) {
  // The detail page's PASS/FAIL report and the stored flags must agree on
  // every job: a report row reads FAIL exactly when its flag fired.
  const std::map<std::string, std::string> flag_of_row = {
      {"metadata rate", "high_metadata_rate"},
      {"GigE bandwidth", "high_gige"},
      {"largemem footprint", "largemem_underuse"},
      {"node balance (idle)", "idle_nodes"},
      {"time balance (catastrophe)", "cpu_time_variation"},
      {"ramp-up", "cpu_ramp_up"},
      {"tail drop", "cpu_tail_drop"},
      {"cycles per instruction", "high_cpi"},
      {"vectorization", "low_vectorization"},
  };
  const auto& t = jobs_table();
  std::size_t flagged = 0;
  for (const db::RowId row : t.select({})) {
    std::set<std::string> stored;
    std::stringstream flags(t.at(row, "flags").as_text());
    for (std::string name; std::getline(flags, name, ',');) {
      stored.insert(name);
    }
    flagged += stored.empty() ? 0 : 1;
    std::set<std::string> failed;
    std::stringstream report(portal::threshold_report(t, row));
    for (std::string line; std::getline(report, line);) {
      for (const auto& [label, flag] : flag_of_row) {
        if (line.starts_with(label) &&
            line.find(" FAIL") != std::string::npos) {
          failed.insert(flag);
        }
      }
    }
    EXPECT_EQ(failed, stored) << "job " << t.at(row, "jobid").to_string();
  }
  EXPECT_GT(flagged, 0u);
}

TEST_F(CalibrationTest, PowerBreakdownIsPhysical) {
  const auto& t = jobs_table();
  const auto all = t.select({});
  const double pkg = t.aggregate(db::Agg::Avg, "PkgWatts", all);
  const double core = t.aggregate(db::Agg::Avg, "CoreWatts", all);
  const double dram = t.aggregate(db::Agg::Avg, "DramWatts", all);
  EXPECT_GT(pkg, core);   // cores are part of the package
  EXPECT_GT(core, 0.0);
  EXPECT_GT(dram, 0.0);
  EXPECT_LT(pkg, 250.0);  // per node, 2 sockets, sane wattage
}

}  // namespace
}  // namespace tacc::pipeline

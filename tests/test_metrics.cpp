// Table I metric computation against hand-built job data with exactly known
// counter values: ARC (average-rate-of-change) semantics, Maximum-metric
// semantics, ratio-of-averages, wraparound correction, NaN propagation for
// absent devices, idle/catastrophe definitions.
#include <gtest/gtest.h>

#include <cmath>

#include "pipeline/metrics.hpp"

namespace tacc::pipeline {
namespace {

constexpr util::SimTime kT0 = 1451606400LL * util::kSecond;
constexpr std::int64_t kDt = 600;  // seconds per interval

collect::Schema cpu_schema() {
  return collect::Schema("cpu", {{"user", true, 64, "jiffies", 1.0},
                                 {"nice", true, 64, "jiffies", 1.0},
                                 {"system", true, 64, "jiffies", 1.0},
                                 {"idle", true, 64, "jiffies", 1.0},
                                 {"iowait", true, 64, "jiffies", 1.0}});
}

collect::Schema pmc_schema() {
  return collect::Schema("hsw",
                         {{"instructions", true, 48, "", 1.0},
                          {"cycles", true, 48, "", 1.0},
                          {"fp_scalar", true, 48, "", 1.0},
                          {"fp_vector", true, 48, "", 1.0},
                          {"loads_all", true, 48, "", 1.0},
                          {"l1_hits", true, 48, "", 1.0}});
}

collect::Schema mdc_schema() {
  return collect::Schema("mdc", {{"reqs", true, 64, "reqs", 1.0},
                                 {"wait", true, 64, "usec", 1.0}});
}

collect::Schema rapl_schema() {
  return collect::Schema("rapl",
                         {{"energy_pkg", true, 32, "uJ", 1.0e6 / 65536.0},
                          {"energy_cores", true, 32, "uJ", 1.0e6 / 65536.0},
                          {"energy_dram", true, 32, "uJ", 1.0e6 / 65536.0}});
}

collect::Schema mem_schema() {
  return collect::Schema("mem", {{"MemTotal", false, 64, "KB", 1.0},
                                 {"MemFree", false, 64, "KB", 1.0},
                                 {"Cached", false, 64, "KB", 1.0},
                                 {"MemUsed", false, 64, "KB", 1.0}});
}

/// Builds a host with n records at 600 s spacing; `fill` appends blocks for
/// record index r.
collect::HostLog make_host(
    const std::string& name, std::vector<collect::Schema> schemas, int n,
    const std::function<void(int, collect::Record&)>& fill) {
  collect::HostLog h;
  h.hostname = name;
  h.arch = "hsw";
  h.schemas = std::move(schemas);
  for (int r = 0; r < n; ++r) {
    collect::Record rec;
    rec.time = kT0 + r * kDt * util::kSecond;
    rec.jobids = {1};
    fill(r, rec);
    h.records.push_back(std::move(rec));
  }
  return h;
}

JobData one_host_job(collect::HostLog host) {
  JobData data;
  data.acct.jobid = 1;
  data.acct.hostnames = {host.hostname};
  data.hosts.push_back(std::move(host));
  return data;
}

TEST(Metrics, EmptyJobIsAllNaN) {
  JobData data;
  const auto m = compute_metrics(data);
  EXPECT_TRUE(std::isnan(m.CPU_Usage));
  EXPECT_TRUE(std::isnan(m.MetaDataRate));
  EXPECT_TRUE(std::isnan(m.flops));
}

TEST(Metrics, SingleRecordIsAllNaN) {
  auto host = make_host("h", {cpu_schema()}, 1, [](int, collect::Record& r) {
    r.blocks.push_back({"cpu", "0", {1, 0, 0, 1, 0}});
  });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_TRUE(std::isnan(m.CPU_Usage));
}

TEST(Metrics, CpuUsageFromJiffies) {
  // 2 cpus, 3 records; user fraction exactly 0.75 on cpu0, 0.25 on cpu1.
  auto host = make_host("h", {cpu_schema()}, 3, [](int r, collect::Record& rec) {
    const std::uint64_t t = static_cast<std::uint64_t>(r) * kDt * 100;
    rec.blocks.push_back({"cpu", "0", {t * 3 / 4, 0, 0, t / 4, 0}});
    rec.blocks.push_back({"cpu", "1", {t / 4, 0, 0, t * 3 / 4, 0}});
  });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_NEAR(m.CPU_Usage, 0.5, 1e-9);  // device-summed user / total
  EXPECT_NEAR(m.catastrophe, 1.0, 1e-9);  // perfectly steady over time
  EXPECT_NEAR(m.idle, 1.0, 1e-9);         // single host: min == max
}

TEST(Metrics, IdleIsMinOverMaxAcrossNodes) {
  auto busy = make_host("h1", {cpu_schema()}, 3, [](int r, collect::Record& rec) {
    const std::uint64_t t = static_cast<std::uint64_t>(r) * kDt * 100;
    rec.blocks.push_back({"cpu", "0", {t * 9 / 10, 0, 0, t / 10, 0}});
  });
  auto lazy = make_host("h2", {cpu_schema()}, 3, [](int r, collect::Record& rec) {
    const std::uint64_t t = static_cast<std::uint64_t>(r) * kDt * 100;
    rec.blocks.push_back({"cpu", "0", {t * 3 / 10, 0, 0, t * 7 / 10, 0}});
  });
  JobData data;
  data.acct.jobid = 1;
  data.hosts = {std::move(busy), std::move(lazy)};
  const auto m = compute_metrics(data);
  EXPECT_NEAR(m.CPU_Usage, 0.6, 1e-6);      // mean(0.9, 0.3)
  EXPECT_NEAR(m.idle, 0.3 / 0.9, 1e-6);     // min/max over nodes
}

TEST(Metrics, CatastropheDetectsTemporalDrop) {
  // First interval busy, second interval dead.
  auto host = make_host("h", {cpu_schema()}, 3, [](int r, collect::Record& rec) {
    // user accumulates only during the first interval.
    const std::uint64_t user = r >= 1 ? 54000 : 0;  // 0.9 * 600 * 100
    const std::uint64_t total = static_cast<std::uint64_t>(r) * kDt * 100;
    rec.blocks.push_back(
        {"cpu", "0", {user, 0, 0, total - user, 0}});
  });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_NEAR(m.catastrophe, 0.0, 1e-9);  // min window 0 / max window 0.9
}

TEST(Metrics, CpiCpldFlopsVecFromPmc) {
  // One cpu: per interval: 1e12 instructions, 2e12 cycles, 1e10 scalar,
  // 3e10 vector FP, 4e11 loads.
  auto host = make_host(
      "h", {pmc_schema()}, 3, [](int r, collect::Record& rec) {
        const auto k = static_cast<std::uint64_t>(r);
        rec.blocks.push_back({"hsw", "0",
                              {k * 1000000000000ULL, k * 2000000000000ULL,
                               k * 10000000000ULL, k * 30000000000ULL,
                               k * 400000000000ULL, k * 380000000000ULL}});
      });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_NEAR(m.cpi, 2.0, 1e-9);
  EXPECT_NEAR(m.cpld, 5.0, 1e-9);  // 2e12 / 4e11
  // hsw vector width = 4 doubles: flops = (1e10 + 4*3e10)/600 s / 1e9.
  EXPECT_NEAR(m.flops, (1e10 + 4 * 3e10) / 600.0 / 1e9, 1e-6);
  EXPECT_NEAR(m.VecPercent, 3.0 / 4.0, 1e-9);  // 3e10 / 4e10
  EXPECT_NEAR(m.Load_All, 4e11 / 600.0, 1e-3);
  EXPECT_NEAR(m.Load_L1Hits, 3.8e11 / 600.0, 1e-3);
  EXPECT_TRUE(std::isnan(m.Load_L2Hits));  // not in the 4-PMC schema
}

TEST(Metrics, PerCoreNormalizationDividesByDevices) {
  // Two cpus with identical counts: per-core load rate must not double.
  auto host = make_host(
      "h", {pmc_schema()}, 2, [](int r, collect::Record& rec) {
        const auto k = static_cast<std::uint64_t>(r);
        for (const char* dev : {"0", "1"}) {
          rec.blocks.push_back({"hsw", dev,
                                {k * 600, k * 1200, 0, 0,
                                 k * 600000, k * 540000}});
        }
      });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_NEAR(m.Load_All, 1000.0, 1e-6);  // 600000/600 per core
  EXPECT_NEAR(m.cpi, 2.0, 1e-9);          // ratio unaffected by summation
}

TEST(Metrics, AverageIsRatioOfTotalsNotIntervalMean) {
  // Uneven intervals: 90% of requests land in the first interval. The ARC
  // must equal total/elapsed, not the mean of per-interval rates.
  auto host = make_host("h", {mdc_schema()}, 3, [](int r, collect::Record& rec) {
    const std::uint64_t reqs = r == 0 ? 0 : (r == 1 ? 9000 : 10000);
    rec.blocks.push_back({"mdc", "t", {reqs, reqs * 100}});
  });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_NEAR(m.MDCReqs, 10000.0 / 1200.0, 1e-9);
  EXPECT_NEAR(m.MDCWait, 100.0, 1e-9);  // wait per request
  // Maximum metric: the hot interval's rate.
  EXPECT_NEAR(m.MetaDataRate, 9000.0 / 600.0, 1e-9);
  EXPECT_GE(m.MetaDataRate, m.MDCReqs);
}

TEST(Metrics, MaxMetricSumsAcrossNodesPerInterval) {
  auto mk = [&](const char* name, std::uint64_t per_interval) {
    return make_host(name, {mdc_schema()}, 3,
                     [per_interval](int r, collect::Record& rec) {
                       const auto k = static_cast<std::uint64_t>(r);
                       rec.blocks.push_back(
                           {"mdc", "t",
                            {k * per_interval, k * per_interval * 10}});
                     });
  };
  JobData data;
  data.acct.jobid = 1;
  data.hosts = {mk("h1", 6000), mk("h2", 12000)};
  const auto m = compute_metrics(data);
  // Average: mean over nodes of per-node rates.
  EXPECT_NEAR(m.MDCReqs, (10.0 + 20.0) / 2.0, 1e-9);
  // Maximum: summed over nodes.
  EXPECT_NEAR(m.MetaDataRate, 30.0, 1e-9);
}

TEST(Metrics, RaplWrapCorrectionAndScaling) {
  // 32-bit register wraps between records; truth is +2^31 units twice.
  auto host = make_host(
      "h", {rapl_schema()}, 3, [](int r, collect::Record& rec) {
        const std::uint64_t reg =
            (static_cast<std::uint64_t>(r) * 0x80000000ULL) & 0xFFFFFFFFULL;
        rec.blocks.push_back({"rapl", "0", {reg, reg / 2, reg / 4}});
      });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  // Total = 2 * 2^31 units * (1e6/65536) uJ / 1200 s / 1e6 -> Watts.
  const double expected_w =
      2.0 * 2147483648.0 * (1.0e6 / 65536.0) / 1200.0 / 1e6;
  EXPECT_NEAR(m.PkgWatts, expected_w, expected_w * 1e-6);
  EXPECT_NEAR(m.CoreWatts, expected_w / 2.0, expected_w);
}

TEST(Metrics, MemUsageIsMaxSnapshot) {
  auto host = make_host("h", {mem_schema()}, 3, [](int r, collect::Record& rec) {
    const std::uint64_t used =
        r == 1 ? 8ULL * 1024 * 1024 : 2ULL * 1024 * 1024;
    rec.blocks.push_back(
        {"mem", "", {32ULL * 1024 * 1024, 0, 0, used}});
  });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_NEAR(m.MemUsage, 8.0, 1e-9);  // GB, max over snapshots
}

TEST(Metrics, InternodeIbSubtractsLnetAndClamps) {
  collect::Schema ib("ib", {{"port_rcv_data", true, 64, "bytes", 4.0},
                            {"port_xmit_data", true, 64, "bytes", 4.0},
                            {"port_rcv_pkts", true, 64, "packets", 1.0},
                            {"port_xmit_pkts", true, 64, "packets", 1.0}});
  collect::Schema lnet("lnet", {{"tx_msgs", true, 64, "msgs", 1.0},
                                {"rx_msgs", true, 64, "msgs", 1.0},
                                {"tx_bytes", true, 64, "bytes", 1.0},
                                {"rx_bytes", true, 64, "bytes", 1.0}});
  auto host = make_host(
      "h", {ib, lnet}, 3, [](int r, collect::Record& rec) {
        const auto k = static_cast<std::uint64_t>(r);
        // IB: 40 MB per interval per direction in 4-byte words.
        rec.blocks.push_back(
            {"ib", "mlx4_0",
             {k * 10000000, k * 10000000, k * 20000, k * 20000}});
        // LNET: 30 MB per interval per direction.
        rec.blocks.push_back(
            {"lnet", "", {k * 1000, k * 1000, k * 30000000, k * 30000000}});
      });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  // IB bytes = 2 * 40 MB, LNET = 2 * 30 MB -> MPI = 20 MB per 600 s.
  EXPECT_NEAR(m.InternodeIBAveBW, 20e6 / 600.0 / 1e6, 1e-6);
  // Totals over the job: 40M words * 4 B = 160 MB carried by 80k packets
  // (both directions counted) -> 2 kB average packets at 66.7 packets/s.
  EXPECT_NEAR(m.Packetsize,
              (2.0 * 10e6 + 2.0 * 10e6) * 4.0 / (2.0 * 20000 + 2.0 * 20000),
              1e-6);
  EXPECT_NEAR(m.Packetrate, (2.0 * 20000 + 2.0 * 20000) / 1200.0, 1e-6);
}

TEST(Metrics, InternodeIbClampsToZeroWhenLnetDominates) {
  collect::Schema ib("ib", {{"port_rcv_data", true, 64, "bytes", 4.0},
                            {"port_xmit_data", true, 64, "bytes", 4.0},
                            {"port_rcv_pkts", true, 64, "packets", 1.0},
                            {"port_xmit_pkts", true, 64, "packets", 1.0}});
  collect::Schema lnet("lnet", {{"tx_msgs", true, 64, "msgs", 1.0},
                                {"rx_msgs", true, 64, "msgs", 1.0},
                                {"tx_bytes", true, 64, "bytes", 1.0},
                                {"rx_bytes", true, 64, "bytes", 1.0}});
  auto host = make_host(
      "h", {ib, lnet}, 2, [](int r, collect::Record& rec) {
        const auto k = static_cast<std::uint64_t>(r);
        rec.blocks.push_back({"ib", "x", {k * 1000, k * 1000, k, k}});
        // LNET reports more than the IB port (e.g. router asymmetry).
        rec.blocks.push_back({"lnet", "", {0, 0, k * 9000000, k * 9000000}});
      });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_DOUBLE_EQ(m.InternodeIBAveBW, 0.0);
}

TEST(Metrics, MissingDevicesAreNaN) {
  auto host = make_host("h", {cpu_schema()}, 3, [](int r, collect::Record& rec) {
    const std::uint64_t t = static_cast<std::uint64_t>(r) * kDt * 100;
    rec.blocks.push_back({"cpu", "0", {t / 2, 0, 0, t / 2, 0}});
  });
  const auto m = compute_metrics(one_host_job(std::move(host)));
  EXPECT_FALSE(std::isnan(m.CPU_Usage));
  EXPECT_TRUE(std::isnan(m.MetaDataRate));
  EXPECT_TRUE(std::isnan(m.flops));
  EXPECT_TRUE(std::isnan(m.GigEBW));
  EXPECT_TRUE(std::isnan(m.MIC_Usage));
  EXPECT_TRUE(std::isnan(m.PkgWatts));
  EXPECT_TRUE(std::isnan(m.MemUsage));
}

TEST(Metrics, LabelsMatchMapKeys) {
  const JobMetrics m;
  const auto map = m.as_map();
  EXPECT_EQ(map.size(), JobMetrics::labels().size());
  for (const auto& label : JobMetrics::labels()) {
    EXPECT_TRUE(map.count(label)) << label;
  }
}

TEST(Timeseries, PanelsMatchHandComputedValues) {
  auto host = make_host(
      "h", {cpu_schema(), pmc_schema()}, 3, [](int r, collect::Record& rec) {
        const std::uint64_t t = static_cast<std::uint64_t>(r) * kDt * 100;
        rec.blocks.push_back({"cpu", "0", {t * 4 / 5, 0, 0, t / 5, 0}});
        const auto k = static_cast<std::uint64_t>(r);
        rec.blocks.push_back({"hsw", "0",
                              {k * 100, k * 200, k * 6000000000ULL,
                               k * 6000000000ULL, k * 10, k * 10}});
      });
  const auto series = job_timeseries(one_host_job(std::move(host)));
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].times.size(), 2u);
  EXPECT_NEAR(series[0].cpu_user[0], 0.8, 1e-9);
  // flops = (6e9 + 4*6e9)/600 / 1e9 = 0.05 GF/s.
  EXPECT_NEAR(series[0].gflops[0], 0.05, 1e-9);
  EXPECT_EQ(series[0].hostname, "h");
}

}  // namespace
}  // namespace tacc::pipeline

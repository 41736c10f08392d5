#include "pipeline/metrics.hpp"

#include <algorithm>
#include <optional>

#include "util/stats.hpp"

namespace tacc::pipeline {
namespace {

constexpr double kMB = 1.0e6;
constexpr double kGB1024 = 1024.0 * 1024.0;  // kB -> GB divisor

double mean_of(const std::vector<double>& xs) {
  return util::mean(std::span<const double>(xs.data(), xs.size()));
}

/// Average-rate metric: per-host rate (optionally per device), averaged
/// over hosts. NaN if no host carries the counter.
double avg_rate(const std::vector<HostExtract>& hosts,
                const std::string& type, const std::string& key,
                bool per_device = false) {
  std::vector<double> rates;
  for (const auto& h : hosts) {
    auto r = h.rate(type, key);
    if (!r) continue;
    const int nd = per_device ? std::max(1, h.num_devices(type)) : 1;
    rates.push_back(*r / nd);
  }
  return rates.empty() ? nan("") : mean_of(rates);
}

/// Maximum metric: per-interval deltas summed across hosts, divided by the
/// interval, maximum over intervals. Hosts are index-aligned (synchronized
/// sampling); the shortest host bounds the interval count.
double max_rate(const std::vector<HostExtract>& hosts,
                const std::string& type, const std::string& key) {
  std::vector<std::vector<double>> all;
  std::size_t n = SIZE_MAX;
  const HostExtract* timing = nullptr;
  for (const auto& h : hosts) {
    auto d = h.interval_deltas(type, key);
    if (!d || d->empty()) continue;
    n = std::min(n, d->size());
    all.push_back(std::move(*d));
    if (timing == nullptr) timing = &h;
  }
  if (all.empty() || n == SIZE_MAX || n == 0) return nan("");
  double best = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (const auto& d : all) sum += d[i];
    const double dt = timing->interval_dt(i);
    if (dt <= 0.0) continue;
    best = std::max(best, sum / dt);
    any = true;
  }
  return any ? best : nan("");
}

/// Sum of two optional rates with NaN propagation rules of avg_rate.
double avg_rate2(const std::vector<HostExtract>& hosts,
                 const std::string& type, const std::string& key1,
                 const std::string& key2, bool per_device = false) {
  std::vector<double> rates;
  for (const auto& h : hosts) {
    const auto a = h.rate(type, key1);
    const auto b = h.rate(type, key2);
    if (!a || !b) continue;
    const int nd = per_device ? std::max(1, h.num_devices(type)) : 1;
    rates.push_back((*a + *b) / nd);
  }
  return rates.empty() ? nan("") : mean_of(rates);
}

}  // namespace

std::span<const JobMetrics::Field> JobMetrics::fields() {
  using M = JobMetrics;
  static const Field all[] = {
      {"MetaDataRate", &M::MetaDataRate}, {"MDCReqs", &M::MDCReqs},
      {"OSCReqs", &M::OSCReqs}, {"MDCWait", &M::MDCWait},
      {"OSCWait", &M::OSCWait}, {"LLiteOpenClose", &M::LLiteOpenClose},
      {"LnetAveBW", &M::LnetAveBW}, {"LnetMaxBW", &M::LnetMaxBW},
      {"InternodeIBAveBW", &M::InternodeIBAveBW},
      {"InternodeIBMaxBW", &M::InternodeIBMaxBW},
      {"Packetsize", &M::Packetsize}, {"Packetrate", &M::Packetrate},
      {"GigEBW", &M::GigEBW}, {"Load_All", &M::Load_All},
      {"Load_L1Hits", &M::Load_L1Hits}, {"Load_L2Hits", &M::Load_L2Hits},
      {"Load_LLCHits", &M::Load_LLCHits}, {"cpi", &M::cpi},
      {"cpld", &M::cpld}, {"flops", &M::flops},
      {"VecPercent", &M::VecPercent}, {"mbw", &M::mbw},
      {"PkgWatts", &M::PkgWatts}, {"CoreWatts", &M::CoreWatts},
      {"DramWatts", &M::DramWatts}, {"MemUsage", &M::MemUsage},
      {"MemHWM", &M::MemHWM}, {"CPU_Usage", &M::CPU_Usage},
      {"idle", &M::idle}, {"catastrophe", &M::catastrophe},
      {"RampUp", &M::RampUp}, {"TailDrop", &M::TailDrop},
      {"MIC_Usage", &M::MIC_Usage}};
  return all;
}

const std::vector<std::string>& JobMetrics::labels() {
  static const std::vector<std::string> all = [] {
    std::vector<std::string> out;
    out.reserve(fields().size());
    for (const Field& f : fields()) out.emplace_back(f.label);
    return out;
  }();
  return all;
}

std::map<std::string, double> JobMetrics::as_map() const {
  std::map<std::string, double> out;
  for (const Field& f : fields()) out.emplace(f.label, this->*f.value);
  return out;
}

JobMetrics compute_metrics(const JobData& data) {
  JobMetrics m;
  std::vector<HostExtract> hosts;
  hosts.reserve(data.hosts.size());
  for (const auto& hs : data.hosts) {
    HostExtract h(hs.schemas, hs.records, hs.arch);
    if (h.num_records() >= 2 && h.elapsed() > 0.0) {
      hosts.push_back(std::move(h));
    }
  }
  if (hosts.empty()) return m;

  // ---- Lustre ---------------------------------------------------------
  m.MetaDataRate = max_rate(hosts, "mdc", "reqs");
  m.MDCReqs = avg_rate(hosts, "mdc", "reqs");
  m.OSCReqs = avg_rate(hosts, "osc", "reqs");
  // Wait metrics: average time per request = wait rate / request rate.
  {
    std::vector<double> mdw, osw;
    for (const auto& h : hosts) {
      const auto wr = h.rate("mdc", "wait");
      const auto rr = h.rate("mdc", "reqs");
      if (wr && rr && *rr > 0.0) mdw.push_back(*wr / *rr);
      const auto wo = h.rate("osc", "wait");
      const auto ro = h.rate("osc", "reqs");
      if (wo && ro && *ro > 0.0) osw.push_back(*wo / *ro);
    }
    if (!mdw.empty()) m.MDCWait = mean_of(mdw);
    if (!osw.empty()) m.OSCWait = mean_of(osw);
  }
  m.LLiteOpenClose = avg_rate2(hosts, "llite", "open", "close");
  {
    const double ave = avg_rate2(hosts, "lnet", "tx_bytes", "rx_bytes");
    m.LnetAveBW = std::isnan(ave) ? ave : ave / kMB;
    const double tx = max_rate(hosts, "lnet", "tx_bytes");
    const double rx = max_rate(hosts, "lnet", "rx_bytes");
    if (!std::isnan(tx) && !std::isnan(rx)) m.LnetMaxBW = (tx + rx) / kMB;
  }

  // ---- Network --------------------------------------------------------
  {
    std::vector<double> mpi;
    for (const auto& h : hosts) {
      const auto ib_rx = h.rate("ib", "port_rcv_data");
      const auto ib_tx = h.rate("ib", "port_xmit_data");
      if (!ib_rx || !ib_tx) continue;
      const auto ln_tx = h.rate("lnet", "tx_bytes");
      const auto ln_rx = h.rate("lnet", "rx_bytes");
      const double lnet = (ln_tx ? *ln_tx : 0.0) + (ln_rx ? *ln_rx : 0.0);
      mpi.push_back(std::max(0.0, *ib_rx + *ib_tx - lnet));
    }
    if (!mpi.empty()) m.InternodeIBAveBW = mean_of(mpi) / kMB;
    const double ib_max = max_rate(hosts, "ib", "port_rcv_data");
    const double ib_max_tx = max_rate(hosts, "ib", "port_xmit_data");
    const double ln_max = max_rate(hosts, "lnet", "tx_bytes");
    const double ln_max_rx = max_rate(hosts, "lnet", "rx_bytes");
    if (!std::isnan(ib_max) && !std::isnan(ib_max_tx)) {
      double lnet = 0.0;
      if (!std::isnan(ln_max)) lnet += ln_max;
      if (!std::isnan(ln_max_rx)) lnet += ln_max_rx;
      m.InternodeIBMaxBW = std::max(0.0, ib_max + ib_max_tx - lnet) / kMB;
    }
    // Packet size/rate: totals over the whole job across hosts.
    double bytes = 0.0, packets = 0.0, rate_sum = 0.0;
    int nr = 0;
    for (const auto& h : hosts) {
      const auto rb = h.total_delta("ib", "port_rcv_data");
      const auto tb = h.total_delta("ib", "port_xmit_data");
      const auto rp = h.total_delta("ib", "port_rcv_pkts");
      const auto tp = h.total_delta("ib", "port_xmit_pkts");
      if (!rb || !tb || !rp || !tp) continue;
      bytes += *rb + *tb;
      packets += *rp + *tp;
      rate_sum += (*rp + *tp) / h.elapsed();
      ++nr;
    }
    if (packets > 0.0) m.Packetsize = bytes / packets;
    if (nr > 0) m.Packetrate = rate_sum / nr;
  }
  {
    const double giga = avg_rate2(hosts, "net", "rx_bytes", "tx_bytes");
    m.GigEBW = std::isnan(giga) ? giga : giga / kMB;
  }

  // ---- Processor ------------------------------------------------------
  {
    std::vector<double> loads, l1, l2, llc, cpis, cplds, fls, vecs, mbws;
    for (const auto& h : hosts) {
      const std::string pmc = h.pmc_type();
      if (pmc.empty()) continue;
      const auto inst = h.rate(pmc, "instructions");
      const auto cyc = h.rate(pmc, "cycles");
      const int ncores = std::max(1, h.num_devices(pmc));
      if (const auto r = h.rate(pmc, "loads_all")) {
        loads.push_back(*r / ncores);
        if (cyc && *r > 0.0) cplds.push_back(*cyc / *r);
      }
      if (const auto r = h.rate(pmc, "l1_hits")) l1.push_back(*r / ncores);
      if (const auto r = h.rate(pmc, "l2_hits")) l2.push_back(*r / ncores);
      if (const auto r = h.rate(pmc, "llc_hits")) llc.push_back(*r / ncores);
      if (inst && cyc && *inst > 0.0) cpis.push_back(*cyc / *inst);
      const auto sc = h.rate(pmc, "fp_scalar");
      const auto ve = h.rate(pmc, "fp_vector");
      if (sc && ve) {
        const double w = h.vector_width();
        fls.push_back((*sc + w * *ve) / 1e9);  // GFLOP/s per node
        if (*sc + *ve > 0.0) vecs.push_back(*ve / (*sc + *ve));
      }
      const auto rd = h.rate("imc", "cas_reads");
      const auto wr = h.rate("imc", "cas_writes");
      if (rd && wr) mbws.push_back((*rd + *wr) * 64.0 / 1e9);  // GB/s
    }
    if (!loads.empty()) m.Load_All = mean_of(loads);
    if (!l1.empty()) m.Load_L1Hits = mean_of(l1);
    if (!l2.empty()) m.Load_L2Hits = mean_of(l2);
    if (!llc.empty()) m.Load_LLCHits = mean_of(llc);
    if (!cpis.empty()) m.cpi = mean_of(cpis);
    if (!cplds.empty()) m.cpld = mean_of(cplds);
    if (!fls.empty()) m.flops = mean_of(fls);
    if (!vecs.empty()) m.VecPercent = mean_of(vecs);
    if (!mbws.empty()) m.mbw = mean_of(mbws);
  }

  // ---- Energy ---------------------------------------------------------
  {
    // rapl values are scaled to microjoules; rate is uJ/s -> W / 1e6.
    const double pkg = avg_rate(hosts, "rapl", "energy_pkg");
    const double pp0 = avg_rate(hosts, "rapl", "energy_cores");
    const double dram = avg_rate(hosts, "rapl", "energy_dram");
    if (!std::isnan(pkg)) m.PkgWatts = pkg / 1e6;
    if (!std::isnan(pp0)) m.CoreWatts = pp0 / 1e6;
    if (!std::isnan(dram)) m.DramWatts = dram / 1e6;
  }

  // ---- OS -------------------------------------------------------------
  {
    double max_used = nan("");
    double max_hwm = nan("");
    std::vector<double> usage;
    std::vector<std::vector<double>> cpu_user, cpu_total;
    for (const auto& h : hosts) {
      if (const auto mem = h.gauge_series("mem", "MemUsed")) {
        for (const double kb : *mem) {
          const double gb = kb / kGB1024;
          if (std::isnan(max_used) || gb > max_used) max_used = gb;
        }
      }
      if (const auto hwm = h.gauge_series("ps", "vm_hwm")) {
        for (const double kb : *hwm) {
          const double gb = kb / kGB1024;
          if (std::isnan(max_hwm) || gb > max_hwm) max_hwm = gb;
        }
      }
      const auto user = h.interval_deltas("cpu", "user");
      if (!user) continue;
      std::vector<double> total(user->size(), 0.0);
      for (const char* key : {"user", "nice", "system", "idle", "iowait"}) {
        const auto d = h.interval_deltas("cpu", key);
        if (!d) continue;
        for (std::size_t i = 0; i < total.size(); ++i) total[i] += (*d)[i];
      }
      double su = 0.0, st = 0.0;
      for (std::size_t i = 0; i < user->size(); ++i) {
        su += (*user)[i];
        st += total[i];
      }
      if (st > 0.0) usage.push_back(su / st);
      cpu_user.push_back(*user);
      cpu_total.push_back(total);
    }
    m.MemUsage = max_used;
    m.MemHWM = max_hwm;
    if (!usage.empty()) {
      m.CPU_Usage = mean_of(usage);
      const auto [mn, mx] = std::minmax_element(usage.begin(), usage.end());
      if (*mx > 0.0) m.idle = *mn / *mx;
    }
    // catastrophe: node-summed per-interval usage, min/max over time.
    if (!cpu_user.empty()) {
      std::size_t n = SIZE_MAX;
      for (const auto& u : cpu_user) n = std::min(n, u.size());
      if (n != SIZE_MAX && n >= 2) {
        std::vector<double> windows;
        windows.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          double su = 0.0, st = 0.0;
          for (std::size_t hh = 0; hh < cpu_user.size(); ++hh) {
            su += cpu_user[hh][i];
            st += cpu_total[hh][i];
          }
          if (st > 0.0) windows.push_back(su / st);
        }
        if (windows.size() >= 2) {
          const auto [mn, mx] =
              std::minmax_element(windows.begin(), windows.end());
          if (*mx > 0.0) {
            m.catastrophe = *mn / *mx;
            m.RampUp = windows.front() / *mx;
            m.TailDrop = windows.back() / *mx;
          }
        }
      }
    }
    // RampUp/TailDrop localize the temporal imbalance directionally
    // (section V-A: sudden increases suggest a compile step, sudden drops
    // an application failure). For FP-active jobs the FLOP series is the
    // better performance proxy — a compile phase keeps the CPU busy but
    // produces no FLOPs, which is exactly the "sudden increase" of the
    // paper's plots; otherwise the CPU windows above stand.
    if (!std::isnan(m.flops) && m.flops > 0.1) {
      std::vector<std::vector<double>> fp_windows;
      std::size_t n = SIZE_MAX;
      const HostExtract* timing = nullptr;
      for (const auto& h : hosts) {
        const std::string pmc = h.pmc_type();
        if (pmc.empty()) continue;
        const auto sc = h.interval_deltas(pmc, "fp_scalar");
        const auto ve = h.interval_deltas(pmc, "fp_vector");
        if (!sc || !ve) continue;
        const double w = h.vector_width();
        std::vector<double> f(sc->size());
        for (std::size_t i = 0; i < f.size(); ++i) {
          f[i] = (*sc)[i] + w * (*ve)[i];
        }
        n = std::min(n, f.size());
        fp_windows.push_back(std::move(f));
        if (timing == nullptr) timing = &h;
      }
      // Zero-length intervals (an epilog "end" record on a sampling tick
      // shares its timestamp with the interval record) are no window, as
      // in max_rate(): hosts are index-aligned, the first one times them.
      std::vector<double> windows;
      for (std::size_t i = 0; timing != nullptr && i < n; ++i) {
        if (timing->interval_dt(i) <= 0.0) continue;
        double sum = 0.0;
        for (const auto& f : fp_windows) sum += f[i];
        windows.push_back(sum);
      }
      if (windows.size() >= 2) {
        const double peak =
            *std::max_element(windows.begin(), windows.end());
        if (peak > 0.0) {
          m.RampUp = windows.front() / peak;
          m.TailDrop = windows.back() / peak;
        }
      }
    }
  }
  {
    std::vector<double> mic;
    for (const auto& h : hosts) {
      const auto u = h.rate("mic", "user");
      const auto s = h.rate("mic", "sys");
      const auto i = h.rate("mic", "idle");
      if (!u || !s || !i) continue;
      const double total = *u + *s + *i;
      if (total > 0.0) mic.push_back(*u / total);
    }
    if (!mic.empty()) m.MIC_Usage = mean_of(mic);
  }

  return m;
}

std::vector<NodeSeries> job_timeseries(const JobData& data) {
  std::vector<NodeSeries> out;
  for (const auto& hs : data.hosts) {
    const HostExtract h(hs.schemas, hs.records, hs.arch);
    if (h.num_records() < 2) continue;
    NodeSeries ns;
    ns.hostname = hs.hostname;
    const std::size_t n = h.num_intervals();

    const std::string pmc = h.pmc_type();
    const auto sc = pmc.empty() ? std::nullopt
                                : h.interval_deltas(pmc, "fp_scalar");
    const auto ve = pmc.empty() ? std::nullopt
                                : h.interval_deltas(pmc, "fp_vector");
    const double width = h.vector_width();
    const auto rd = h.interval_deltas("imc", "cas_reads");
    const auto wr = h.interval_deltas("imc", "cas_writes");
    const auto mem = h.gauge_series("mem", "MemUsed");
    const auto lrx = h.interval_deltas("lnet", "rx_bytes");
    const auto ltx = h.interval_deltas("lnet", "tx_bytes");
    const auto irx = h.interval_deltas("ib", "port_rcv_data");
    const auto itx = h.interval_deltas("ib", "port_xmit_data");
    const auto cu = h.interval_deltas("cpu", "user");
    std::vector<double> ctotal(n, 0.0);
    for (const char* key : {"user", "nice", "system", "idle", "iowait"}) {
      if (const auto d = h.interval_deltas("cpu", key)) {
        for (std::size_t i = 0; i < n; ++i) ctotal[i] += (*d)[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double dt = h.interval_dt(i);
      if (dt <= 0.0) continue;
      ns.times.push_back(util::to_seconds(hs.records[i].time) + dt / 2.0);
      ns.gflops.push_back(sc && ve ? ((*sc)[i] + width * (*ve)[i]) / dt / 1e9
                                   : 0.0);
      ns.mem_bw_gbps.push_back(
          rd && wr ? ((*rd)[i] + (*wr)[i]) * 64.0 / dt / 1e9 : 0.0);
      ns.mem_used_gb.push_back(mem ? (*mem)[i] / kGB1024 : 0.0);
      const double lnet =
          (lrx ? (*lrx)[i] : 0.0) + (ltx ? (*ltx)[i] : 0.0);
      ns.lustre_mbps.push_back(lnet / dt / kMB);
      const double ib =
          (irx ? (*irx)[i] : 0.0) + (itx ? (*itx)[i] : 0.0);
      ns.ib_mpi_mbps.push_back(std::max(0.0, ib - lnet) / dt / kMB);
      ns.cpu_user.push_back(cu && ctotal[i] > 0.0 ? (*cu)[i] / ctotal[i]
                                                  : 0.0);
    }
    out.push_back(std::move(ns));
  }
  return out;
}

}  // namespace tacc::pipeline

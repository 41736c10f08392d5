#include "transport/archive.hpp"

namespace tacc::transport {

void RawArchive::add_header_locked(const std::string& hostname,
                                   const std::string& arch,
                                   std::vector<collect::Schema> schemas) {
  auto& host = hosts_[hostname];
  if (host.log.hostname.empty()) {
    host.log.hostname = hostname;
    host.log.arch = arch;
    host.log.schemas = std::move(schemas);
  }
}

void RawArchive::add_header(const std::string& hostname,
                            const std::string& arch,
                            std::vector<collect::Schema> schemas) {
  util::MutexLock lock(mu_);
  add_header_locked(hostname, arch, std::move(schemas));
}

std::size_t RawArchive::append_unique(
    const std::string& producer, const std::vector<std::uint64_t>& seqs,
    const collect::HostLog& chunk, const std::vector<util::SimTime>& delays,
    std::size_t dedup_window, std::vector<char>* fresh) {
  util::MutexLock lock(mu_);
  if (fresh) fresh->assign(seqs.size(), 0);
  auto& dedup = dedup_[producer];
  std::size_t appended = 0;
  bool header_done = false;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (!dedup.seen.insert(seqs[i]).second) continue;
    dedup.order.push_back(seqs[i]);
    while (dedup_window > 0 && dedup.order.size() > dedup_window) {
      dedup.seen.erase(dedup.order.front());
      dedup.order.pop_front();
    }
    if (fresh) (*fresh)[i] = 1;
    ++appended;
    if (i >= chunk.records.size()) continue;
    if (!header_done) {
      add_header_locked(chunk.hostname, chunk.arch, chunk.schemas);
      header_done = true;
    }
    auto& host = hosts_[chunk.hostname];
    const auto& record = chunk.records[i];
    host.ingest_times.push_back(record.time +
                                (i < delays.size() ? delays[i] : 0));
    host.log.records.push_back(record);
  }
  return appended;
}

bool RawArchive::was_seen(const std::string& producer,
                          std::uint64_t seq) const {
  util::MutexLock lock(mu_);
  const auto it = dedup_.find(producer);
  return it != dedup_.end() && it->second.seen.count(seq) > 0;
}

std::size_t RawArchive::seen_count(const std::string& producer) const {
  util::MutexLock lock(mu_);
  const auto it = dedup_.find(producer);
  return it == dedup_.end() ? 0 : it->second.seen.size();
}

void RawArchive::append(const std::string& hostname, collect::Record record,
                        util::SimTime ingest_time) {
  util::MutexLock lock(mu_);
  auto& host = hosts_[hostname];
  if (host.log.hostname.empty()) host.log.hostname = hostname;
  host.log.records.push_back(std::move(record));
  host.ingest_times.push_back(ingest_time);
}

collect::HostLog RawArchive::log(const std::string& hostname) const {
  util::MutexLock lock(mu_);
  const auto it = hosts_.find(hostname);
  return it == hosts_.end() ? collect::HostLog{} : it->second.log;
}

void RawArchive::visit_log(
    const std::string& hostname,
    const std::function<void(const collect::HostLog&)>& fn) const {
  util::MutexLock lock(mu_);
  const auto it = hosts_.find(hostname);
  if (it != hosts_.end()) fn(it->second.log);
}

std::vector<std::string> RawArchive::hosts() const {
  util::MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(hosts_.size());
  for (const auto& [host, data] : hosts_) out.push_back(host);
  return out;
}

std::size_t RawArchive::total_records() const {
  util::MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [host, data] : hosts_) n += data.log.records.size();
  return n;
}

util::RunningStat RawArchive::latency() const {
  util::MutexLock lock(mu_);
  util::RunningStat stat;
  for (const auto& [host, data] : hosts_) {
    for (std::size_t i = 0; i < data.ingest_times.size(); ++i) {
      stat.add(util::to_seconds(data.ingest_times[i] -
                                data.log.records[i].time));
    }
  }
  return stat;
}

}  // namespace tacc::transport

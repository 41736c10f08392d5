#include "transport/archive.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_map>

namespace tacc::transport {
namespace {

/// An append-only column of trivially copyable values in chunks of 4 KiB.
/// The first chunk grows geometrically up to that size and every later one
/// is allocated whole, so a column holds at most one chunk of slack, where
/// a doubling vector's slack grows with the column.
template <typename T>
class Column {
 public:
  static constexpr std::size_t kChunk = 4096 / sizeof(T);

  std::size_t size() const noexcept { return size_; }

  T operator[](std::size_t i) const { return chunks_[i / kChunk][i % kChunk]; }

  void push_back(T v) { append(std::span<const T>(&v, 1)); }

  void append(std::span<const T> vs) {
    while (!vs.empty()) {
      if (chunks_.empty() || chunks_.back().size() == kChunk) {
        chunks_.emplace_back();
        if (chunks_.size() > 1) chunks_.back().reserve(kChunk);
      }
      std::vector<T>& chunk = chunks_.back();
      const std::size_t n = std::min(vs.size(), kChunk - chunk.size());
      if (chunk.size() + n > chunk.capacity()) {
        chunk.reserve(
            std::min(kChunk, std::max(chunk.size() + n, 2 * chunk.capacity())));
      }
      chunk.insert(chunk.end(), vs.begin(), vs.begin() + n);
      size_ += n;
      vs = vs.subspan(n);
    }
  }

  /// The `n` values from index `i`: a view into the column, or a copy in
  /// `scratch` when they straddle two chunks.
  std::span<const T> view(std::size_t i, std::size_t n,
                          std::vector<T>& scratch) const {
    const std::size_t offset = i % kChunk;
    if (offset + n <= kChunk) return {chunks_[i / kChunk].data() + offset, n};
    scratch.clear();
    for (std::size_t k = 0; k < n; ++k) scratch.push_back((*this)[i + k]);
    return scratch;
  }

  /// Allocated bytes: every chunk's capacity and the chunk directory.
  std::size_t capacity_bytes() const noexcept {
    std::size_t bytes = chunks_.capacity() * sizeof(std::vector<T>);
    for (const auto& chunk : chunks_) bytes += chunk.capacity() * sizeof(T);
    return bytes;
  }

 private:
  std::vector<std::vector<T>> chunks_;
  std::size_t size_ = 0;
};

/// Heap bytes a string holds beyond its object (0 within the SSO buffer).
std::size_t heap_bytes(const std::string& s) noexcept {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

constexpr std::uint32_t kNoSchema = std::numeric_limits<std::uint32_t>::max();

/// The shape of a host's blocks: (type, device, value count), with the
/// index of the type's schema in the host header (kNoSchema if the header
/// has none). A (type, device) pair keeps one value count, its schema's
/// arity, so the count costs no key of its own and no per-block column.
struct Key {
  std::string type;
  std::string device;
  std::uint32_t size = 0;
  std::uint32_t schema = kNoSchema;
};

/// One host's header and record columns.
struct HostColumns {
  collect::HostLog header;  // identity and schemas; `records` stays empty

  // Per record, parallel. The *_ends are cumulative: record r owns
  // [ends[r-1], ends[r]) of the job-id, block and value columns.
  Column<util::SimTime> times;
  Column<util::SimTime> ingest_times;
  Column<std::uint32_t> marks;  // index into mark_names
  Column<std::uint64_t> job_ends;
  Column<std::uint64_t> block_ends;
  Column<std::uint64_t> value_ends;
  Column<long> jobids;
  // Per block.
  Column<std::uint32_t> block_keys;  // index into keys
  Column<std::uint64_t> values;

  std::vector<Key> keys;
  // Encoded key -> index into keys. Determinism audit (DT002):
  // lookup-only (try_emplace), never iterated; ids follow first-append
  // order, the deterministic order of the archived records.
  std::unordered_map<std::string, std::uint32_t> key_ids;
  std::vector<std::string> mark_names;  // a handful of scheduler words
  std::string key_scratch;

  /// First write wins; a host first seen through append() keeps the
  /// header append() gave it (its hostname only).
  void set_header(const std::string& hostname, const std::string& arch,
                  const std::vector<collect::Schema>& schemas) {
    if (!header.hostname.empty()) return;
    header.hostname = hostname;
    header.arch = arch;
    header.schemas = schemas;
    for (Key& key : keys) key.schema = schema_index(key.type);
  }

  std::uint32_t schema_index(std::string_view type) const {
    const collect::Schema* schema = header.schema_for(type);
    return schema == nullptr
               ? kNoSchema
               : static_cast<std::uint32_t>(schema - header.schemas.data());
  }

  std::uint32_t intern_key(const collect::RawBlock& block) {
    // Size and type length first, so no (type, device) split of the bytes
    // collides.
    const std::uint32_t head[2] = {
        static_cast<std::uint32_t>(block.values.size()),
        static_cast<std::uint32_t>(block.type.size())};
    key_scratch.assign(reinterpret_cast<const char*>(head), sizeof head);
    key_scratch += block.type;
    key_scratch += block.device;
    const auto [it, fresh] = key_ids.try_emplace(
        key_scratch, static_cast<std::uint32_t>(keys.size()));
    if (fresh) {
      keys.push_back({block.type, block.device, head[0],
                      schema_index(block.type)});
    }
    return it->second;
  }

  std::uint32_t intern_mark(const std::string& mark) {
    for (std::size_t i = 0; i < mark_names.size(); ++i) {
      if (mark_names[i] == mark) return static_cast<std::uint32_t>(i);
    }
    mark_names.push_back(mark);
    return static_cast<std::uint32_t>(mark_names.size() - 1);
  }

  void append(const collect::Record& record, util::SimTime ingest_time) {
    times.push_back(record.time);
    ingest_times.push_back(ingest_time);
    marks.push_back(intern_mark(record.mark));
    jobids.append(record.jobids);
    job_ends.push_back(jobids.size());
    for (const collect::RawBlock& block : record.blocks) {
      block_keys.push_back(intern_key(block));
      values.append(block.values);
    }
    block_ends.push_back(block_keys.size());
    value_ends.push_back(values.size());
  }

  void replay(collect::RecordSink& sink) const {
    sink.header(header);
    std::vector<long> ids;                 // the record's job ids
    std::vector<std::uint64_t> straddle;   // a block across two chunks
    std::uint64_t job = 0;
    std::uint64_t block = 0;
    std::uint64_t value = 0;
    for (std::size_t r = 0; r < times.size(); ++r) {
      ids.clear();
      for (const std::uint64_t end = job_ends[r]; job < end; ++job) {
        ids.push_back(jobids[job]);
      }
      const collect::RecordView view{times[r], ids, mark_names[marks[r]]};
      const std::uint64_t block_end = block_ends[r];
      if (!sink.keep(view)) {
        block = block_end;
        value = value_ends[r];
        continue;
      }
      sink.record(view);
      for (; block < block_end; ++block) {
        const Key& key = keys[block_keys[block]];
        sink.block({key.type, key.device,
                    key.schema == kNoSchema ? nullptr
                                            : &header.schemas[key.schema],
                    values.view(value, key.size, straddle)});
        value += key.size;
      }
    }
  }

  std::size_t resident_bytes() const {
    std::size_t bytes =
        times.capacity_bytes() + ingest_times.capacity_bytes() +
        marks.capacity_bytes() + job_ends.capacity_bytes() +
        block_ends.capacity_bytes() + value_ends.capacity_bytes() +
        jobids.capacity_bytes() + block_keys.capacity_bytes() +
        values.capacity_bytes();
    // key_ids holds one node per key (its encoded key, id, next pointer
    // and cached hash) besides its bucket array.
    using Node = std::pair<const std::string, std::uint32_t>;
    bytes += keys.capacity() * sizeof(Key) +
             key_ids.bucket_count() * sizeof(void*) +
             keys.size() * (sizeof(Node) + 2 * sizeof(void*));
    for (const Key& key : keys) {
      bytes += heap_bytes(key.type) + heap_bytes(key.device);
      const std::size_t encoded = 8 + key.type.size() + key.device.size();
      if (encoded > std::string().capacity()) bytes += encoded + 1;
    }
    bytes += mark_names.capacity() * sizeof(std::string);
    for (const auto& mark : mark_names) bytes += heap_bytes(mark);
    return bytes + heap_bytes(key_scratch);
  }
};

}  // namespace

struct RawArchive::Host {
  mutable util::Mutex mu;
  HostColumns columns TACC_GUARDED_BY(mu);
};

RawArchive::RawArchive() = default;
RawArchive::~RawArchive() = default;

RawArchive::Host& RawArchive::host_locked(const std::string& hostname) {
  auto& host = hosts_[hostname];
  if (!host) host = std::make_unique<Host>();
  return *host;
}

const RawArchive::Host* RawArchive::find(const std::string& hostname) const {
  util::MutexLock lock(mu_);
  const auto it = hosts_.find(hostname);
  return it == hosts_.end() ? nullptr : it->second.get();
}

void RawArchive::add_header(const std::string& hostname,
                            const std::string& arch,
                            std::vector<collect::Schema> schemas) {
  util::MutexLock lock(mu_);
  Host& host = host_locked(hostname);
  util::MutexLock host_lock(host.mu);
  host.columns.set_header(hostname, arch, schemas);
}

std::size_t RawArchive::append_unique(
    const std::string& producer, const std::vector<std::uint64_t>& seqs,
    const collect::HostLog& chunk, const std::vector<util::SimTime>& delays,
    std::size_t dedup_window, std::vector<char>* fresh) {
  util::MutexLock lock(mu_);
  if (fresh) fresh->assign(seqs.size(), 0);
  auto& dedup = dedup_[producer];
  std::size_t appended = 0;
  Host* host = nullptr;
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
    if (host == nullptr) host = &host_locked(chunk.hostname);
    util::MutexLock host_lock(host->mu);
    host->columns.set_header(chunk.hostname, chunk.arch, chunk.schemas);
    const auto& record = chunk.records[i];
    host->columns.append(record,
                         record.time + (i < delays.size() ? delays[i] : 0));
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

void RawArchive::append(const std::string& hostname,
                        const collect::Record& record,
                        util::SimTime ingest_time) {
  util::MutexLock lock(mu_);
  Host& host = host_locked(hostname);
  util::MutexLock host_lock(host.mu);
  if (host.columns.header.hostname.empty()) {
    host.columns.header.hostname = hostname;
  }
  host.columns.append(record, ingest_time);
}

bool RawArchive::replay(const std::string& hostname,
                        collect::RecordSink& sink) const {
  const Host* host = find(hostname);
  if (host == nullptr) return false;
  util::MutexLock lock(host->mu);
  host->columns.replay(sink);
  return true;
}

collect::HostLog RawArchive::log(const std::string& hostname) const {
  collect::HostLog log;
  collect::MaterializeSink sink(log);
  replay(hostname, sink);
  return log;
}

void RawArchive::visit_log(
    const std::string& hostname,
    const std::function<void(const collect::HostLog&)>& fn) const {
  collect::HostLog log;
  collect::MaterializeSink sink(log);
  if (replay(hostname, sink)) fn(log);
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
  for (const auto& [name, host] : hosts_) {
    util::MutexLock host_lock(host->mu);
    n += host->columns.times.size();
  }
  return n;
}

util::RunningStat RawArchive::latency() const {
  util::MutexLock lock(mu_);
  util::RunningStat stat;
  for (const auto& [name, host] : hosts_) {
    util::MutexLock host_lock(host->mu);
    const HostColumns& columns = host->columns;
    for (std::size_t i = 0; i < columns.times.size(); ++i) {
      stat.add(util::to_seconds(columns.ingest_times[i] - columns.times[i]));
    }
  }
  return stat;
}

RawArchive::Usage RawArchive::usage() const {
  util::MutexLock lock(mu_);
  Usage usage;
  for (const auto& [name, host] : hosts_) {
    util::MutexLock host_lock(host->mu);
    usage.resident_bytes += host->columns.resident_bytes();
    usage.values += host->columns.values.size();
  }
  return usage;
}

}  // namespace tacc::transport

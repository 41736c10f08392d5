// The stats message: every message a daemon or an aggregator tier
// publishes is one host's AggFrame. A daemon sends each collection as a
// frame of one record, the paper's self-describing chunk (header + record)
// behind its (producer, seq) identity. An aggregator coalesces N same-host
// records behind ONE copy of the host's header (magic + $hostname/$arch +
// !schema lines), amortizing the header bytes and letting the root
// consumer append all N records under a single archive lock acquisition.
//
// Wire format (body of a transport::Message):
//
//   $tacc_agg 1 <producer> <count> <header_len>\n
//   $seqs s1,s2,...,sN\n
//   $delays d1,d2,...,dN\n
//   <header bytes (header_len)><record bytes>
//
// The per-record (producer, seq) identities and injected delays survive
// coalescing, so the root's exactly-once dedup and latency accounting see
// exactly what they would have seen from N individual messages.
// `header_len` ends the header where collect::HostLog::parse_header does,
// which lets an upper tier merge two frames of the same host without
// re-parsing the schema header. A body that is not a valid frame is
// malformed at every reader.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "transport/broker.hpp"
#include "util/clock.hpp"

namespace tacc::transport {

struct AggFrame {
  std::string producer;                 // hostname the records belong to
  std::vector<std::uint64_t> seqs;      // per-record daemon sequence numbers
  std::vector<util::SimTime> delays;    // per-record injected delays
  std::size_t header_len = 0;           // header prefix length of payload
  std::string payload;                  // header bytes + record bytes

  /// Parses a serialized frame. Throws std::invalid_argument on malformed
  /// input: bad magic, count mismatch, truncated payload, or a header_len
  /// that does not end the payload's header. The header must open with the
  /// $tacc_stats format line and hold only '$' and '!' lines, the last one
  /// ending at header_len; the byte after it, if any, starts a record line.
  static AggFrame parse(std::string_view body);

  std::string serialize() const;

  /// The frame a message carries, the message's delay added to every
  /// record's. Moves the body out of `msg`. Throws std::invalid_argument
  /// if the body is not a valid frame.
  static AggFrame of_message(Message& msg);

  /// The (producer, seq) identities carried by a message's frame. Used by
  /// conservation accounting to count dead-lettered records regardless of
  /// which tier parked them. Throws like of_message().
  static std::vector<std::pair<std::string, std::uint64_t>> message_seqs(
      const Message& msg);
};

}  // namespace tacc::transport

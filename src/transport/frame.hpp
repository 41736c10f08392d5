// Coalesced aggregation frame: the unit an aggregator tier republishes
// upward. A frame packs N same-host raw records behind ONE copy of the
// host's header (magic + $hostname/$arch + !schema lines), amortizing the
// header bytes and letting the root consumer append all N records under a
// single archive lock acquisition.
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
// exactly what they would have seen from N individual messages. Plain raw
// chunks start with "$tacc_stats", so is_frame() can cheaply discriminate.
// `header_len` lets an upper tier merge two frames of the same host without
// re-parsing the schema header.
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

  /// True if `body` is a serialized frame (vs. a plain raw chunk).
  static bool is_frame(std::string_view body) noexcept;

  /// Parses a serialized frame. Throws std::invalid_argument on malformed
  /// input (bad magic, count mismatch, truncated payload).
  static AggFrame parse(std::string_view body);

  std::string serialize() const;

  /// A message as one host's frame, its delay added to every record's: a
  /// frame as it is, a plain daemon chunk as a frame of one record under
  /// the message's (producer, seq), header_len 0. Moves the body out of
  /// `msg`. Throws std::invalid_argument on a malformed frame or a chunk
  /// without a producer identity.
  static AggFrame of_message(Message& msg);

  std::size_t record_count() const noexcept { return seqs.size(); }

  /// The (producer, seq) identities carried by a message, frame-aware: one
  /// pair for a plain chunk, N pairs for a frame. Used by conservation
  /// accounting to count dead-lettered records regardless of which tier
  /// parked them.
  static std::vector<std::pair<std::string, std::uint64_t>> message_seqs(
      const Message& msg);

  /// Number of raw records a message carries (1 for a plain chunk).
  static std::size_t message_records(const Message& msg) noexcept;
};

}  // namespace tacc::transport

// Trace records (RFC 2041 spirit: packet traffic + device characteristics).
//
// Collection logs every outgoing and incoming packet with protocol-specific
// fields, plus periodic WaveLAN device readings, plus explicit markers for
// records lost to kernel-buffer overruns (paper Section 3.1).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "wireless/signal_model.hpp"

namespace tracemod::trace {

enum class PacketDirection : std::uint8_t { kOutgoing = 0, kIncoming = 1 };

enum class IcmpKind : std::uint8_t { kNone = 0, kEcho = 1, kEchoReply = 2 };

struct PacketRecord {
  sim::TimePoint at{};          ///< collection-host clock reading
  PacketDirection dir = PacketDirection::kOutgoing;
  net::Protocol protocol = net::Protocol::kUdp;
  std::uint32_t ip_bytes = 0;   ///< IP datagram size
  // ICMP workload fields (paper Section 3.1.1).
  IcmpKind icmp_kind = IcmpKind::kNone;
  std::uint16_t icmp_id = 0;    ///< pid of the generating process
  std::uint16_t icmp_seq = 0;
  sim::TimePoint echo_origin{}; ///< generation timestamp from the payload
  // Transport fields where relevant.
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t tcp_seq = 0;
  std::uint8_t tcp_flags = 0;   ///< bit0 SYN, bit1 ACK, bit2 FIN, bit3 RST

  /// Round-trip time for an ECHOREPLY: receive time minus the origin
  /// timestamp carried in the payload.  Single-host clock, no sync needed.
  sim::Duration rtt() const { return at - echo_origin; }
};

struct DeviceRecord {
  sim::TimePoint at{};
  double signal_level = 0.0;
  double signal_quality = 0.0;
  double silence_level = 0.0;
};

/// Emitted when the kernel buffer overran; counts what was lost, by type.
struct LostRecords {
  sim::TimePoint at{};
  std::uint32_t lost_packet_records = 0;
  std::uint32_t lost_device_records = 0;
};

using TraceRecord = std::variant<PacketRecord, DeviceRecord, LostRecords>;

/// Timestamp of any record.
inline sim::TimePoint record_time(const TraceRecord& r) {
  return std::visit([](const auto& rec) { return rec.at; }, r);
}

/// A complete collected trace plus query helpers used by the distiller.
struct CollectedTrace {
  std::vector<TraceRecord> records;

  std::vector<PacketRecord> echo_replies() const;
  std::vector<PacketRecord> echoes_sent() const;
  std::vector<DeviceRecord> device_records() const;
  std::uint64_t total_lost_records() const;
  sim::Duration duration() const;
};

}  // namespace tracemod::trace

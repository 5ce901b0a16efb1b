#include "trace/records.hpp"

namespace tracemod::trace {

std::vector<PacketRecord> CollectedTrace::echo_replies() const {
  std::vector<PacketRecord> out;
  for (const TraceRecord& r : records) {
    if (const auto* p = std::get_if<PacketRecord>(&r)) {
      if (p->icmp_kind == IcmpKind::kEchoReply &&
          p->dir == PacketDirection::kIncoming) {
        out.push_back(*p);
      }
    }
  }
  return out;
}

std::vector<PacketRecord> CollectedTrace::echoes_sent() const {
  std::vector<PacketRecord> out;
  for (const TraceRecord& r : records) {
    if (const auto* p = std::get_if<PacketRecord>(&r)) {
      if (p->icmp_kind == IcmpKind::kEcho &&
          p->dir == PacketDirection::kOutgoing) {
        out.push_back(*p);
      }
    }
  }
  return out;
}

std::vector<DeviceRecord> CollectedTrace::device_records() const {
  std::vector<DeviceRecord> out;
  for (const TraceRecord& r : records) {
    if (const auto* d = std::get_if<DeviceRecord>(&r)) out.push_back(*d);
  }
  return out;
}

std::uint64_t CollectedTrace::total_lost_records() const {
  std::uint64_t n = 0;
  for (const TraceRecord& r : records) {
    if (const auto* l = std::get_if<LostRecords>(&r)) {
      n += l->lost_packet_records + l->lost_device_records;
    }
  }
  return n;
}

sim::Duration CollectedTrace::duration() const {
  if (records.empty()) return {};
  return record_time(records.back()) - record_time(records.front());
}

}  // namespace tracemod::trace

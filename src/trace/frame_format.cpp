#include "trace/frame_format.hpp"

#include <vector>

#include "trace/trace_io.hpp"

namespace tracemod::trace::wire {

namespace {

struct SchemaEntry {
  std::uint8_t tag;
  const char* name;
  std::vector<const char*> fields;
};

const std::vector<SchemaEntry>& schema() {
  static const std::vector<SchemaEntry> s = {
      {static_cast<std::uint8_t>(RecordTag::kPacket),
       "packet",
       {"at_ns", "dir", "protocol", "ip_bytes", "icmp_kind", "icmp_id",
        "icmp_seq", "echo_origin_ns", "src_port", "dst_port", "tcp_seq",
        "tcp_flags"}},
      {static_cast<std::uint8_t>(RecordTag::kDevice),
       "device",
       {"at_ns", "signal_level", "signal_quality", "silence_level"}},
      {static_cast<std::uint8_t>(RecordTag::kLost),
       "lost_records",
       {"at_ns", "lost_packet_records", "lost_device_records"}},
  };
  return s;
}

using sim::io::put;

sim::TimePoint get_time(sim::io::ByteReader& in) {
  return sim::TimePoint{sim::Duration{in.get<std::int64_t>()}};
}

void put_time(std::string& out, sim::TimePoint t) {
  put<std::int64_t>(out, t.time_since_epoch().count());
}

}  // namespace

bool known_tag(std::uint8_t tag) {
  return tag == static_cast<std::uint8_t>(RecordTag::kPacket) ||
         tag == static_cast<std::uint8_t>(RecordTag::kDevice) ||
         tag == static_cast<std::uint8_t>(RecordTag::kLost);
}

bool frame_validates(const unsigned char* data, std::size_t size,
                     std::size_t pos) {
  if (size - pos < sim::io::kFrameHeaderBytes) return false;
  const sim::io::FrameHeader h = sim::io::read_frame_header(data + pos);
  if (h.len > kMaxRecordPayload) return false;
  if (size - pos - sim::io::kFrameHeaderBytes < h.len) return false;
  return sim::io::frame_crc(h.type, data + pos + sim::io::kFrameHeaderBytes,
                            h.len) == h.crc;
}

void append_record(std::string& out, const TraceRecord& r) {
  // The payload fields go straight into `out`; close_frame then writes
  // the header in front of them.
  const std::size_t frame = sim::io::open_frame(out);
  RecordTag tag;
  if (const auto* p = std::get_if<PacketRecord>(&r)) {
    tag = RecordTag::kPacket;
    put_time(out, p->at);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(p->dir));
    put<std::uint8_t>(out, static_cast<std::uint8_t>(p->protocol));
    put<std::uint32_t>(out, p->ip_bytes);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(p->icmp_kind));
    put<std::uint16_t>(out, p->icmp_id);
    put<std::uint16_t>(out, p->icmp_seq);
    put_time(out, p->echo_origin);
    put<std::uint16_t>(out, p->src_port);
    put<std::uint16_t>(out, p->dst_port);
    put<std::uint64_t>(out, p->tcp_seq);
    put<std::uint8_t>(out, p->tcp_flags);
  } else if (const auto* d = std::get_if<DeviceRecord>(&r)) {
    tag = RecordTag::kDevice;
    put_time(out, d->at);
    put<double>(out, d->signal_level);
    put<double>(out, d->signal_quality);
    put<double>(out, d->silence_level);
  } else {
    const auto& l = std::get<LostRecords>(r);
    tag = RecordTag::kLost;
    put_time(out, l.at);
    put<std::uint32_t>(out, l.lost_packet_records);
    put<std::uint32_t>(out, l.lost_device_records);
  }
  sim::io::close_frame(out, frame, static_cast<std::uint8_t>(tag));
}

TraceRecord decode_payload(RecordTag tag, sim::io::ByteReader& in) {
  switch (tag) {
    case RecordTag::kPacket: {
      PacketRecord p;
      p.at = get_time(in);
      p.dir = static_cast<PacketDirection>(in.get<std::uint8_t>());
      p.protocol = static_cast<net::Protocol>(in.get<std::uint8_t>());
      p.ip_bytes = in.get<std::uint32_t>();
      p.icmp_kind = static_cast<IcmpKind>(in.get<std::uint8_t>());
      p.icmp_id = in.get<std::uint16_t>();
      p.icmp_seq = in.get<std::uint16_t>();
      p.echo_origin = get_time(in);
      p.src_port = in.get<std::uint16_t>();
      p.dst_port = in.get<std::uint16_t>();
      p.tcp_seq = in.get<std::uint64_t>();
      p.tcp_flags = in.get<std::uint8_t>();
      return p;
    }
    case RecordTag::kDevice: {
      DeviceRecord d;
      d.at = get_time(in);
      d.signal_level = in.get<double>();
      d.signal_quality = in.get<double>();
      d.silence_level = in.get<double>();
      return d;
    }
    case RecordTag::kLost: {
      LostRecords l;
      l.at = get_time(in);
      l.lost_packet_records = in.get<std::uint32_t>();
      l.lost_device_records = in.get<std::uint32_t>();
      return l;
    }
  }
  in.fail();
  return LostRecords{};
}

std::string container_header(std::uint64_t count) {
  std::string out(kMagic, sizeof(kMagic));
  put<std::uint16_t>(out, kTraceFormatVersion);
  // Self-descriptive schema table.
  put<std::uint8_t>(out, static_cast<std::uint8_t>(schema().size()));
  for (const SchemaEntry& e : schema()) {
    put<std::uint8_t>(out, e.tag);
    sim::io::put_str<std::uint16_t>(out, e.name);
    put<std::uint8_t>(out, static_cast<std::uint8_t>(e.fields.size()));
    for (const char* f : e.fields) sim::io::put_str<std::uint16_t>(out, f);
  }
  put<std::uint64_t>(out, count);
  return out;
}

}  // namespace tracemod::trace::wire

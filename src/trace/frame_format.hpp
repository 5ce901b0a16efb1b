// The trace container's layout on top of the shared record codec
// (sim/io/codec.hpp): the container header, the record payloads, and the
// frame checks the salvage reader resynchronizes with.  Shared by the
// in-memory reader facade (trace_io.cpp) and the incremental reader/writer
// (stream_reader.cpp), which the streaming distiller reads through, so the
// salvage semantics of all of them stay byte-identical.
//
// Layout recap (trace_io.hpp documents the container): every record is a
// codec frame, tag u8 | payload length u32 | crc32c u32 | payload bytes.
#pragma once

#include <cstdint>
#include <string>

#include "sim/io/codec.hpp"
#include "trace/records.hpp"

namespace tracemod::trace::wire {

inline constexpr char kMagic[4] = {'T', 'M', 'T', 'R'};

// Bytes of each record type's known fields: the payload append_record
// writes, and the least decode_payload accepts.
inline constexpr std::size_t kPacketPayload = 40;
inline constexpr std::size_t kDevicePayload = 32;
inline constexpr std::size_t kLostPayload = 16;

// Real payloads are <= 40 bytes today; anything past this bound is a
// corrupted length, not a future record type.
inline constexpr std::size_t kMaxRecordPayload = 4096;
// Smallest frame (LostRecords: time + two u32 counters).  Used to clamp
// the header count before reserving.
inline constexpr std::size_t kMinRecordBytes =
    sim::io::kFrameHeaderBytes + kLostPayload;
// Worst-case bytes a reader must see past any position to make the same
// frame decision an in-memory parse would: a full header plus the largest
// plausible payload.
inline constexpr std::size_t kMaxFrameBytes =
    sim::io::kFrameHeaderBytes + kMaxRecordPayload;

enum class RecordTag : std::uint8_t {
  kPacket = 1,
  kDevice = 2,
  kLost = 3,
};

inline bool known_tag(std::uint8_t tag) {
  return tag >= static_cast<std::uint8_t>(RecordTag::kPacket) &&
         tag <= static_cast<std::uint8_t>(RecordTag::kLost);
}

/// True when the bytes at `pos` look like a decodable frame header whose
/// payload fits in [data, data+size) and whose CRC validates.
bool frame_validates(const unsigned char* data, std::size_t size,
                     std::size_t pos);

/// Appends one record as a checksummed frame, encoded in place: once
/// `out` has the capacity, it allocates nothing.
void append_record(std::string& out, const TraceRecord& r);

/// Decodes the `len`-byte payload of a known tag into *out.  The length is
/// checked once against the tag's fields: a shorter payload decodes nothing
/// and returns false (short_payload_offset says where it fails), and a
/// longer one is a newer minor revision whose extra bytes are ignored.
inline bool decode_payload(RecordTag tag, const unsigned char* p,
                           std::size_t len, TraceRecord* out) {
  // Loads the fields in the order append_record stores them.
  const auto next = [&p]<typename T>(T* field) {
    *field = sim::io::load<T>(p);
    p += sizeof(T);
  };
  const auto next_time = [&next](sim::TimePoint* field) {
    std::int64_t ns = 0;
    next(&ns);
    *field = sim::TimePoint{sim::Duration{ns}};
  };
  const auto next_enum = [&next]<typename E>(E* field) {
    std::uint8_t raw = 0;
    next(&raw);
    *field = static_cast<E>(raw);
  };
  switch (tag) {
    case RecordTag::kPacket: {
      if (len < kPacketPayload) return false;
      PacketRecord r;
      next_time(&r.at);
      next_enum(&r.dir);
      next_enum(&r.protocol);
      next(&r.ip_bytes);
      next_enum(&r.icmp_kind);
      next(&r.icmp_id);
      next(&r.icmp_seq);
      next_time(&r.echo_origin);
      next(&r.src_port);
      next(&r.dst_port);
      next(&r.tcp_seq);
      next(&r.tcp_flags);
      *out = r;
      return true;
    }
    case RecordTag::kDevice: {
      if (len < kDevicePayload) return false;
      DeviceRecord r;
      next_time(&r.at);
      next(&r.signal_level);
      next(&r.signal_quality);
      next(&r.silence_level);
      *out = r;
      return true;
    }
    case RecordTag::kLost: {
      if (len < kLostPayload) return false;
      LostRecords r;
      next_time(&r.at);
      next(&r.lost_packet_records);
      next(&r.lost_device_records);
      *out = r;
      return true;
    }
  }
  return false;
}

/// Payload offset of the first field of `tag` that does not fit in `len`
/// bytes, for a payload decode_payload refused as short.
std::size_t short_payload_offset(RecordTag tag, std::size_t len);

/// magic | version | schema table | record count.  The count is the last
/// eight bytes, so a streaming writer can patch it on finalize.
std::string container_header(std::uint64_t count);

}  // namespace tracemod::trace::wire

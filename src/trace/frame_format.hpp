// The trace container's layout on top of the shared record codec
// (sim/io/codec.hpp): the container header, the record payloads, and the
// frame checks the salvage reader resynchronizes with.  Shared by the
// in-memory reader facade (trace_io.cpp), the incremental reader/writer
// (stream_reader.cpp), and the streaming distiller's window re-scan, so
// the salvage semantics of all of them stay byte-identical.
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

// Real payloads are <= 40 bytes today; anything past this bound is a
// corrupted length, not a future record type.
inline constexpr std::size_t kMaxRecordPayload = 4096;
// Smallest frame (LostRecords: time + two u32 counters).  Used to clamp
// the header count before reserving.
inline constexpr std::size_t kMinRecordBytes = sim::io::kFrameHeaderBytes + 16;
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

bool known_tag(std::uint8_t tag);

/// True when the bytes at `pos` look like a decodable frame header whose
/// payload fits in [data, data+size) and whose CRC validates.
bool frame_validates(const unsigned char* data, std::size_t size,
                     std::size_t pos);

/// Appends one record as a checksummed frame, encoded in place: once
/// `out` has the capacity, it allocates nothing.
void append_record(std::string& out, const TraceRecord& r);

/// Decodes one record body of a known tag.  A payload shorter than the
/// fields fails the reader (check in.ok()); longer payloads are a newer
/// minor revision and the extra bytes are ignored.
TraceRecord decode_payload(RecordTag tag, sim::io::ByteReader& in);

/// magic | version | schema table | record count.  The count is the last
/// eight bytes, so a streaming writer can patch it on finalize.
std::string container_header(std::uint64_t count);

}  // namespace tracemod::trace::wire

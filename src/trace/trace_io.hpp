// Self-descriptive binary trace format (in the spirit of RFC 2041: flexible,
// extensible, fully self-descriptive).  Version 2 layout, framed per record
// so a reader can survive corruption:
//   magic "TMTR" | format version u16 | schema table | record count u64 |
//   frames...
// where each frame is the shared codec frame (sim/io/codec.hpp)
//   tag u8 | payload length u32 | crc32c u32 | payload bytes
// The CRC covers the tag byte followed by the payload, so a flipped tag,
// a flipped length, and flipped payload bytes are all detected.  The length
// prefix lets a reader skip records it cannot interpret (unknown tag, bad
// CRC); a corrupted length is recovered from by scanning forward for the
// next frame whose CRC validates.
//
// The schema table names every record type and its fields, so a reader can
// detect version skew and skip unknown record types instead of
// misinterpreting bytes.  All integers little-endian fixed width.  Any
// other format version, including the unframed version 1, is rejected.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "trace/records.hpp"

namespace tracemod::sim {
class MetricsRegistry;
}

namespace tracemod::trace {

/// Malformed or incompatible trace data.
class TraceFormatError : public std::runtime_error {
 public:
  explicit TraceFormatError(const std::string& what)
      : std::runtime_error("trace format error: " + what) {}
  /// Annotates the failure with the absolute byte offset in the stream and
  /// the index of the record being parsed when it was detected.
  TraceFormatError(const std::string& what, std::uint64_t byte_offset,
                   std::uint64_t record_index)
      : std::runtime_error("trace format error: " + what + " at byte offset " +
                           std::to_string(byte_offset) + " (record " +
                           std::to_string(record_index) + ")") {}
};

inline constexpr std::uint16_t kTraceFormatVersion = 2;

/// How a reader treats damage (bad CRC, unknown tag, truncation).
enum class ReadMode {
  kStrict,   ///< throw TraceFormatError on the first problem
  kSalvage,  ///< skip damaged regions, synthesize LostRecords markers
};

/// What a read saw: damage accounting alongside the decoded trace.  The
/// salvage reader converts every damaged region into a LostRecords marker,
/// so downstream consumers (the distiller) see corruption exactly the way
/// they already see kernel-buffer overruns.
struct TraceReadReport {
  std::uint16_t version = 0;           ///< format version of the stream
  ReadMode mode = ReadMode::kStrict;
  std::uint64_t records_expected = 0;  ///< count field from the header
  std::uint64_t records_read = 0;      ///< records decoded successfully
  std::uint64_t records_skipped = 0;   ///< frames dropped (CRC/unknown tag)
  std::uint64_t records_salvaged = 0;  ///< good records decoded after damage
  std::uint64_t crc_failures = 0;      ///< frames whose checksum mismatched
  std::uint64_t unknown_tags = 0;      ///< frames with an unrecognized tag
  std::uint64_t resync_scans = 0;      ///< byte-scan resynchronizations
  std::uint64_t bytes_scanned = 0;     ///< bytes consumed while resyncing
  std::uint64_t lost_markers_synthesized = 0;  ///< LostRecords added
  bool truncated = false;  ///< ended mid-record, or delivered < count

  /// True when the stream decoded without any damage and delivered no
  /// record past the header's count: a body past the count is an
  /// unfinalized writer's or a damaged count, which salvage reads but
  /// strict reading refuses.
  bool clean() const {
    return records_skipped == 0 && crc_failures == 0 && unknown_tags == 0 &&
           resync_scans == 0 && !truncated &&
           records_read <= records_expected;
  }
};

struct TraceReadOptions {
  ReadMode mode = ReadMode::kStrict;
  /// Optional degradation counters (sim/metric_names.hpp): records_salvaged,
  /// crc_failures, resync_scans are bumped on the registry when present.
  sim::MetricsRegistry* metrics = nullptr;
};

struct TraceReadResult {
  CollectedTrace trace;
  TraceReadReport report;
};

/// Serializes a collected trace.
void write_trace(std::ostream& out, const CollectedTrace& trace);

/// Parses a trace in strict mode; throws TraceFormatError on malformed
/// input.
CollectedTrace read_trace(std::istream& in);

/// Parses a trace under the given options, returning the damage report
/// alongside the records.  In salvage mode only an unusable header (bad
/// magic, unsupported version, corrupt schema table) still throws; any
/// damage past the header is skipped and reported.
TraceReadResult read_trace_ex(std::istream& in,
                              const TraceReadOptions& options = {});

/// Convenience file wrappers; throw std::runtime_error on I/O failure.
void save_trace(const std::string& path, const CollectedTrace& trace);
CollectedTrace load_trace(const std::string& path);
TraceReadResult load_trace_ex(const std::string& path,
                              const TraceReadOptions& options = {});

}  // namespace tracemod::trace

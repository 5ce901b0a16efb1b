// Incremental trace reader/writer: the container from trace_io.hpp without
// the whole-file slurp.
//
// TraceStreamReader pulls records one at a time from an std::istream while
// holding only a bounded buffer (one read chunk plus the largest plausible
// frame).  Every decision the in-memory reader makes -- strict-mode error
// offsets, salvage skips, resynchronization scans, LostRecords marker
// synthesis -- depends on at most kMaxFrameBytes of lookahead, so the
// streaming parse is byte-for-byte identical to a slurped parse of the same
// stream: read_trace_ex (trace_io.cpp) is now a loop over this class, and
// the pinned salvage tests in tests/trace/trace_v2_test.cpp hold for both.
//
// The reader also reports the absolute byte offset of every record's frame,
// which is what lets the streaming distiller (core/stream_distiller.hpp)
// partition a corpus into re-readable byte-range windows and re-scan any
// window later via the headerless frame-range mode.
//
// TraceStreamWriter is the append-side dual: it writes the container header
// with a zero record count, appends framed records one at a time, and
// patches the count on finalize() -- so a multi-GB synthetic corpus can be
// generated with flat memory.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <istream>
#include <optional>
#include <string>

#include "sim/io/file_sink.hpp"
#include "trace/records.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::trace {

class TraceStreamReader {
 public:
  /// Parses the container header immediately; header damage (bad magic,
  /// unsupported version, corrupt schema table) throws TraceFormatError
  /// even in salvage mode, exactly like read_trace_ex.
  explicit TraceStreamReader(std::istream& in,
                             const TraceReadOptions& options = {});

  /// Headerless frame-range mode: parse frames starting at the stream's
  /// current position, which must be a frame boundary `base_offset` bytes
  /// into the original file.  Always salvage; no expected-count
  /// bookkeeping.  This is how a distillation window is re-read from its
  /// checkpointed byte range.
  struct FrameRange {};
  TraceStreamReader(std::istream& in, FrameRange, std::uint64_t base_offset);

  TraceStreamReader(const TraceStreamReader&) = delete;
  TraceStreamReader& operator=(const TraceStreamReader&) = delete;

  /// Yields the next record (including synthesized LostRecords markers in
  /// salvage mode); false at end of stream.  Strict mode throws
  /// TraceFormatError on the first problem, with the same offset-annotated
  /// message an in-memory parse produces.
  bool next(TraceRecord* out);

  /// Running damage report; final once next() has returned false.
  const TraceReadReport& report() const { return report_; }

  /// Absolute offset of the first frame (end of the container header).
  std::uint64_t header_bytes() const { return header_bytes_; }

  /// Absolute offset of the frame that produced the last record next()
  /// returned.  For a synthesized marker this is the start of the damaged
  /// region the marker accounts for.
  std::uint64_t record_frame_offset() const { return record_frame_offset_; }

  /// Absolute offset parsing will continue from: the byte boundary between
  /// everything consumed and the next unread frame.
  std::uint64_t next_frame_offset() const { return base_ + pos_; }

  /// Total stream size when the stream is seekable (used for the
  /// reservation clamp in read_trace_ex).
  std::optional<std::uint64_t> stream_size() const { return stream_size_; }

 private:
  bool strict() const { return opts_.mode == ReadMode::kStrict; }
  std::size_t avail() const { return buf_.size() - pos_; }
  std::uint64_t abs() const { return base_ + pos_; }

  /// Ensures `n` bytes are buffered past pos_, or the stream is exhausted
  /// (in which case avail() is ground truth).  Compacts the consumed prefix
  /// before reading so the buffer stays bounded.
  void ensure(std::size_t n);

  [[noreturn]] void fail(const std::string& what, std::uint64_t offset) const;

  /// Byte-scan from just past frame_start for the next offset that
  /// checksums as a frame; false at end of stream.
  bool resync(std::uint64_t frame_start_abs);

  void queue_damage(std::uint8_t tag, std::uint32_t n,
                    std::uint64_t frame_start_abs);
  void flush_damage();
  void emit_good(TraceRecord rec, std::uint64_t frame_start_abs);
  void finish();

  void read_header();
  /// Parses frames until a record (or marker) is pending or the stream
  /// ends.
  void parse_frames();

  std::istream* in_;
  TraceReadOptions opts_;
  bool headerless_ = false;
  bool done_ = false;
  bool stream_exhausted_ = false;

  std::string buf_;
  std::size_t pos_ = 0;
  std::uint64_t base_ = 0;      ///< absolute offset of buf_[0]
  std::size_t hold_rel_ = 0;    ///< earliest byte a resync may revisit

  TraceReadReport report_;
  std::uint64_t header_bytes_ = 0;
  std::uint64_t record_frame_offset_ = 0;
  std::uint64_t last_record_index_ = 0;
  std::optional<std::uint64_t> stream_size_;

  // Salvage bookkeeping: one contiguous damaged region accumulates here and
  // flushes as a single LostRecords marker timestamped with the last good
  // record's time (the epoch before any record decoded) -- the same shape a
  // kernel-buffer overrun leaves in the stream.
  std::uint32_t lost_packet_ = 0;
  std::uint32_t lost_device_ = 0;
  sim::TimePoint last_good_ = sim::kEpoch;
  std::uint64_t damage_start_ = 0;  ///< frame offset of the region's start
  bool damage_seen_ = false;

  struct Pending {
    TraceRecord record;
    std::uint64_t frame_offset;
  };
  std::deque<Pending> pending_;
};

/// Streaming writer: header up front (count patched on finalize), one
/// framed record per append.  File-based because finalize() must seek.
/// Writes through the durable plane (sim/io/file_sink.hpp) directly --
/// not via atomic replace, because a collection stream can be far larger
/// than the free space a tmp copy would need, and an unfinalized file is
/// already detectably invalid (zero count against a non-empty body).
class TraceStreamWriter {
 public:
  explicit TraceStreamWriter(const std::string& path);
  ~TraceStreamWriter();

  TraceStreamWriter(const TraceStreamWriter&) = delete;
  TraceStreamWriter& operator=(const TraceStreamWriter&) = delete;

  void append(const TraceRecord& record);

  std::uint64_t records_written() const { return records_; }
  std::uint64_t bytes_written() const { return bytes_; }

  /// Seeks back and patches the header's record count; the file is not a
  /// valid trace until this runs.  Throws std::runtime_error on I/O failure.
  void finalize();

 private:
  sim::io::FileSink sink_;
  std::string path_;
  std::string frame_;  ///< reused encode buffer
  std::uint64_t count_offset_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  bool finalized_ = false;
};

}  // namespace tracemod::trace

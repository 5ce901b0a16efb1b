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
// partition a corpus into byte-range windows.  Past the header it makes no
// heap allocation per record, and a clean frame costs one pass: next()
// checks it and decodes it straight into the caller's record.  Only the
// good record that follows a synthesized LostRecords marker waits, in a
// one-record hold, for the next call.
//
// TraceStreamWriter is the append-side dual: it writes the container header
// with a zero record count, encodes framed records in place into one reused
// 64 KiB block that goes to disk in one write when it fills, and patches
// the count on finalize() -- so a multi-GB synthetic corpus is generated
// with flat memory, no syscall and no allocation per record.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
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

  TraceStreamReader(const TraceStreamReader&) = delete;
  TraceStreamReader& operator=(const TraceStreamReader&) = delete;

  /// Yields the next record (including synthesized LostRecords markers in
  /// salvage mode); false at end of stream, when *out is unspecified.
  /// Strict mode throws TraceFormatError on the first problem, with the
  /// same offset-annotated message an in-memory parse produces.
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
  std::size_t avail() const { return size_ - pos_; }
  std::uint64_t abs() const { return base_ + pos_; }
  const unsigned char* data() const {
    return reinterpret_cast<const unsigned char*>(buf_.get());
  }

  /// Ensures `n` bytes are buffered past pos_, or the stream is exhausted
  /// (in which case avail() is ground truth).  Compacts the consumed prefix
  /// before reading so the buffer stays bounded.
  void ensure(std::size_t n);

  [[noreturn]] void fail(const std::string& what, std::uint64_t offset) const;

  /// Byte-scan from just past frame_start for the next offset that
  /// checksums as a frame; false at end of stream.
  bool resync(std::uint64_t frame_start_abs);

  /// Counts the frame at frame_start_abs as skipped damage of type `tag`.
  void skip_frame(std::uint8_t tag, std::uint64_t frame_start_abs);
  /// Writes the damage counted since the last good record to *out as one
  /// LostRecords marker.
  void emit_marker(TraceRecord* out);
  /// End of stream: the final checks, then a marker for trailing damage
  /// (true) or nothing (false).
  bool finish(TraceRecord* out);

  void read_header();

  std::istream* in_;
  TraceReadOptions opts_;
  bool done_ = false;
  bool stream_exhausted_ = false;

  // The read buffer: size_ bytes buffered of cap_ allocated.  It grows
  // without zero-filling, since every byte it gains is read over at once.
  std::unique_ptr<char[]> buf_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
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

  // The good record decoded after a damaged region: next() returns the
  // region's marker first and this record on the following call.
  TraceRecord held_;
  std::uint64_t held_frame_offset_ = 0;
  bool holding_ = false;
};

/// Streaming writer: header up front (count patched on finalize), framed
/// records encoded into a 64 KiB block that is written when it fills.
/// File-based because finalize() must seek.  Writes through the durable
/// plane (sim/io/file_sink.hpp) directly -- not via atomic replace, because
/// a collection stream can be far larger than the free space a tmp copy
/// would need, and an unfinalized file is detectably invalid: its count
/// stays zero, and strict readers refuse any byte past the count.
///
/// Failure contract: a failed write throws std::runtime_error and leaves
/// the writer failed -- every later append() or finalize() throws and
/// writes nothing -- so the count is never patched over a short body.
class TraceStreamWriter {
 public:
  /// Opens `path` and writes the header.  Throws std::runtime_error on
  /// failure.
  explicit TraceStreamWriter(const std::string& path);
  /// Closes the file without writing the buffered block or patching the
  /// count: an abandoned trace keeps count 0, which strict readers refuse.
  ~TraceStreamWriter();

  TraceStreamWriter(const TraceStreamWriter&) = delete;
  TraceStreamWriter& operator=(const TraceStreamWriter&) = delete;

  void append(const TraceRecord& record);

  /// Records and bytes appended so far, written or still buffered.
  std::uint64_t records_written() const { return records_; }
  std::uint64_t bytes_written() const { return bytes_; }

  /// Writes the last partial block, patches the header's record count,
  /// and makes the file durable; the file is not a valid trace until this
  /// runs.  Throws std::runtime_error on I/O failure.
  void finalize();

 private:
  /// Writes the block and empties it; on failure, fails the writer and
  /// throws.
  void write_block();

  sim::io::FileSink sink_;
  std::string path_;
  std::string block_;  ///< frames not yet written, capacity reserved once
  std::uint64_t count_offset_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  bool failed_ = false;
  bool finalized_ = false;
};

}  // namespace tracemod::trace

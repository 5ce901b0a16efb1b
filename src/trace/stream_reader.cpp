#include "trace/stream_reader.hpp"

#include <algorithm>
#include <cstring>

#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "trace/frame_format.hpp"

namespace tracemod::trace {

namespace {

/// Read granularity.  The buffer never grows past roughly one chunk plus
/// two maximum frames, no matter how large the stream is.
constexpr std::size_t kReadChunk = 256 * 1024;

/// Bytes the writer buffers before one write.  128 MB is 2,048 writes,
/// which cost nothing measurable.  The block (plus one frame of slack)
/// stays below glibc's default 128 KiB mmap threshold: a larger block
/// would be mmapped, and freeing it raises glibc's dynamic threshold, so
/// later large allocations (the reader's read chunk) would move onto the
/// heap.
constexpr std::size_t kBlockBytes = 64 * 1024;

}  // namespace

// --- construction -----------------------------------------------------------

TraceStreamReader::TraceStreamReader(std::istream& in,
                                     const TraceReadOptions& options)
    : in_(&in), opts_(options) {
  report_.mode = options.mode;

  // Probe the stream size when seekable; read_trace_ex uses it to clamp the
  // reservation exactly the way the slurping reader's remaining-byte count
  // did.
  const std::streampos start = in_->tellg();
  if (start != std::streampos(-1)) {
    in_->seekg(0, std::ios::end);
    const std::streampos end = in_->tellg();
    in_->seekg(start);
    if (end != std::streampos(-1) && end >= start) {
      stream_size_ = static_cast<std::uint64_t>(end - start);
    }
  }

  read_header();
}

void TraceStreamReader::read_header() {
  // Header: magic | version | schema table | record count.  The header must
  // be intact even for salvage: without it there is no trustworthy record
  // framing to resynchronize against.
  ensure(sizeof(wire::kMagic));
  if (avail() < sizeof(wire::kMagic) ||
      std::memcmp(data() + pos_, wire::kMagic, sizeof(wire::kMagic)) != 0) {
    throw TraceFormatError("bad magic");
  }
  pos_ += sizeof(wire::kMagic);

  // The schema table is variable-length: parse what is buffered, and read
  // more only for a header longer than one read chunk.
  for (;;) {
    sim::io::ByteReader h(data() + pos_, avail(), abs());
    report_.version = h.get<std::uint16_t>();
    if (h.ok() && report_.version != kTraceFormatVersion) {
      throw TraceFormatError("unsupported version " +
                             std::to_string(report_.version));
    }
    const auto n_schemas = h.get<std::uint8_t>();
    for (std::uint8_t i = 0; i < n_schemas && h.ok(); ++i) {
      (void)h.get<std::uint8_t>();   // tag
      (void)h.str<std::uint16_t>();  // name
      const auto n_fields = h.get<std::uint8_t>();
      for (std::uint8_t f = 0; f < n_fields; ++f) {
        (void)h.str<std::uint16_t>();
      }
    }
    report_.records_expected = h.get<std::uint64_t>();
    if (h.ok()) {
      pos_ += h.pos();
      break;
    }
    if (stream_exhausted_) {
      throw TraceFormatError("unexpected end of stream", h.offset(), 0);
    }
    ensure(avail() + 1);
  }
  header_bytes_ = abs();
  hold_rel_ = pos_;
}

// --- buffer management ------------------------------------------------------

void TraceStreamReader::ensure(std::size_t n) {
  if (avail() >= n || stream_exhausted_) return;
  // Compact: everything before the hold point (the earliest byte a salvage
  // resync may still revisit) is done with.
  const std::size_t keep_from = std::min(pos_, hold_rel_);
  if (keep_from > 0) {
    std::memmove(buf_.get(), buf_.get() + keep_from, size_ - keep_from);
    size_ -= keep_from;
    base_ += keep_from;
    pos_ -= keep_from;
    hold_rel_ -= keep_from;
  }
  while (avail() < n && !stream_exhausted_) {
    const std::size_t chunk = std::max(n, kReadChunk);
    if (size_ + chunk > cap_) {
      // Past the header the buffer holds at most two frames kept for a
      // resync plus one chunk, so the first allocation is the last.
      const std::size_t cap =
          std::max(size_ + chunk, kReadChunk + 2 * wire::kMaxFrameBytes);
      auto grown = std::make_unique_for_overwrite<char[]>(cap);
      if (size_ > 0) std::memcpy(grown.get(), buf_.get(), size_);
      buf_ = std::move(grown);
      cap_ = cap;
    }
    in_->read(buf_.get() + size_, static_cast<std::streamsize>(chunk));
    const auto got = static_cast<std::size_t>(in_->gcount());
    size_ += got;
    if (got < chunk) stream_exhausted_ = true;
  }
}

void TraceStreamReader::fail(const std::string& what,
                             std::uint64_t offset) const {
  throw TraceFormatError(what, offset,
                         report_.records_read + report_.records_skipped);
}

// --- salvage bookkeeping ----------------------------------------------------

void TraceStreamReader::skip_frame(std::uint8_t tag,
                                   std::uint64_t frame_start_abs) {
  ++report_.records_skipped;
  damage_seen_ = true;
  if (lost_packet_ == 0 && lost_device_ == 0) damage_start_ = frame_start_abs;
  if (tag == static_cast<std::uint8_t>(wire::RecordTag::kDevice)) {
    ++lost_device_;
  } else {
    ++lost_packet_;
  }
}

void TraceStreamReader::emit_marker(TraceRecord* out) {
  *out = LostRecords{last_good_, lost_packet_, lost_device_};
  record_frame_offset_ = damage_start_;
  ++report_.lost_markers_synthesized;
  lost_packet_ = 0;
  lost_device_ = 0;
}

bool TraceStreamReader::finish(TraceRecord* out) {
  if (strict() && report_.records_read < report_.records_expected) {
    fail("unexpected end of stream", abs());
  }
  // Clean EOF but fewer frames than the header declared: the stream lost
  // its tail (or the count field itself is damaged) -- either way the
  // reader delivered less than promised, which salvage must report.  This
  // also catches truncation that lands exactly on a frame boundary.
  if (!strict() && report_.records_read + report_.records_skipped <
                       report_.records_expected) {
    report_.truncated = true;
  }
  const bool marker = lost_packet_ != 0 || lost_device_ != 0;
  if (marker) emit_marker(out);
  if (opts_.metrics != nullptr) {
    sim::MetricsRegistry& m = *opts_.metrics;
    m.counter(sim::metric::kRecordsSalvaged) += report_.records_salvaged;
    m.counter(sim::metric::kCrcFailures) += report_.crc_failures;
    m.counter(sim::metric::kResyncScans) += report_.resync_scans;
  }
  done_ = true;
  return marker;
}

bool TraceStreamReader::resync(std::uint64_t frame_start_abs) {
  ++report_.resync_scans;
  pos_ = static_cast<std::size_t>(frame_start_abs - base_) + 1;
  for (;;) {
    hold_rel_ = pos_;
    ensure(wire::kMaxFrameBytes);
    if (avail() == 0) {
      report_.bytes_scanned += abs() - frame_start_abs;
      report_.truncated = true;
      return false;
    }
    if (wire::frame_validates(data(), size_, pos_)) {
      report_.bytes_scanned += abs() - frame_start_abs;
      return true;
    }
    ++pos_;
  }
}

// --- record iteration -------------------------------------------------------

bool TraceStreamReader::next(TraceRecord* out) {
  if (holding_) {
    holding_ = false;
    *out = held_;
    record_frame_offset_ = held_frame_offset_;
    return true;
  }
  while (!done_) {
    hold_rel_ = pos_;
    if (avail() < wire::kMaxFrameBytes) {
      ensure(wire::kMaxFrameBytes);
      if (avail() == 0) return finish(out);
    }
    if (strict() && report_.records_read >= report_.records_expected) {
      // The count is the contract: a byte past it belongs to no record the
      // header declares (an unfinalized writer's body, or a damaged count).
      fail("data past the declared record count of " +
               std::to_string(report_.records_expected),
           abs());
    }
    const std::uint64_t frame_start = abs();

    if (avail() < sim::io::kFrameHeaderBytes) {
      if (strict()) {
        fail("unexpected end of stream in frame header", abs());
      }
      report_.truncated = true;
      skip_frame(0, frame_start);
      pos_ = size_;
      return finish(out);
    }
    const auto [tag, len, crc] = sim::io::read_frame_header(data() + pos_);
    pos_ += sim::io::kFrameHeaderBytes;

    // A length that cannot fit the stream (or is absurd) means the header
    // itself is corrupt: the length cannot be trusted to skip forward, so
    // resynchronize by scanning for the next frame that checksums.  The
    // buffer holds at least kMaxFrameBytes here unless the stream ended,
    // so avail() agrees with the slurping reader's remaining-byte check.
    if (len > wire::kMaxRecordPayload || avail() < len) {
      if (strict()) {
        if (len > wire::kMaxRecordPayload) {
          fail("implausible record length " + std::to_string(len), abs());
        }
        fail("unexpected end of stream in record payload", abs());
      }
      skip_frame(0, frame_start);
      if (!resync(frame_start)) return finish(out);
      continue;
    }

    const unsigned char* payload = data() + pos_;
    pos_ += len;

    if (sim::io::frame_crc(tag, payload, len) != crc) {
      if (strict()) {
        fail("record checksum mismatch", frame_start);
      }
      ++report_.crc_failures;
      skip_frame(tag, frame_start);
      // The length field may be part of the damage (a plausible-but-wrong
      // value skips into the middle of a later frame and cascades).  Only
      // trust the skip if it lands on a frame that checksums, or on EOF.
      ensure(wire::kMaxFrameBytes);
      if (avail() > 0 && !wire::frame_validates(data(), size_, pos_)) {
        if (!resync(frame_start)) return finish(out);
      }
      continue;
    }
    if (!wire::known_tag(tag)) {
      if (strict()) {
        fail("unknown record tag " + std::to_string(tag), frame_start);
      }
      ++report_.unknown_tags;
      skip_frame(tag, frame_start);
      continue;
    }

    // A checksummed frame of a known type.  A payload longer than the
    // fields we know is a newer minor revision (extra fields are ignored),
    // a shorter one is damage the CRC cannot see (it was written that
    // way), which strict mode rejects.
    const auto type = static_cast<wire::RecordTag>(tag);
    if (!wire::decode_payload(type, payload, len, out)) {
      if (strict()) {
        fail("unexpected end of stream",
             frame_start + sim::io::kFrameHeaderBytes +
                 wire::short_payload_offset(type, len));
      }
      skip_frame(tag, frame_start);
      continue;
    }

    ++report_.records_read;
    if (damage_seen_) ++report_.records_salvaged;
    const sim::TimePoint at = record_time(*out);
    if (lost_packet_ != 0 || lost_device_ != 0) {
      // The damage just crossed goes out first, stamped with the previous
      // good record's time; this record waits for the next call.
      held_ = *out;
      held_frame_offset_ = frame_start;
      holding_ = true;
      emit_marker(out);
    } else {
      record_frame_offset_ = frame_start;
    }
    last_good_ = at;
    return true;
  }
  return false;
}

// --- streaming writer -------------------------------------------------------

TraceStreamWriter::TraceStreamWriter(const std::string& path) : path_(path) {
  if (!sink_.open(path, sim::io::FileSink::Mode::kTruncate)) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  const std::string header = wire::container_header(0);
  count_offset_ = header.size() - sizeof(std::uint64_t);
  bytes_ = header.size();
  if (!sink_.write(header)) {
    throw std::runtime_error("write failed: " + path);
  }
  // One frame of slack: a block is written once it reaches kBlockBytes,
  // so the frame that crosses the mark never reallocates it.
  block_.reserve(kBlockBytes + wire::kMaxFrameBytes);
}

// The FileSink closes the descriptor; nothing buffered is written.
TraceStreamWriter::~TraceStreamWriter() = default;

void TraceStreamWriter::append(const TraceRecord& record) {
  if (failed_ || finalized_) {
    throw std::runtime_error("write failed: " + path_);
  }
  const std::size_t before = block_.size();
  wire::append_record(block_, record);
  ++records_;
  bytes_ += block_.size() - before;
  if (block_.size() >= kBlockBytes) write_block();
}

void TraceStreamWriter::write_block() {
  const sim::io::IoResult r = sink_.write(block_);
  block_.clear();
  if (!r.ok) {
    failed_ = true;
    throw std::runtime_error("write failed: " + path_);
  }
}

void TraceStreamWriter::finalize() {
  if (finalized_) return;
  if (failed_) throw std::runtime_error("write failed: " + path_);
  if (!block_.empty()) write_block();
  // Patch the header count in place, then make the whole container
  // durable before reporting success: after finalize() returns, the trace
  // survives power loss.
  char count[sizeof(std::uint64_t)];
  sim::io::store<std::uint64_t>(count, records_);
  sim::io::IoResult r = sink_.write_at(count_offset_, count, sizeof(count));
  if (r.ok) r = sink_.datasync();
  if (r.ok) r = sink_.close();
  if (!r.ok) {
    failed_ = true;
    throw std::runtime_error("finalize failed: " + path_);
  }
  finalized_ = true;
}

}  // namespace tracemod::trace

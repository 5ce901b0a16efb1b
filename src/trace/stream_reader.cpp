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

TraceStreamReader::TraceStreamReader(std::istream& in, FrameRange,
                                     std::uint64_t base_offset)
    : in_(&in), headerless_(true), base_(base_offset),
      header_bytes_(base_offset) {
  opts_.mode = ReadMode::kSalvage;
  report_.mode = ReadMode::kSalvage;
  report_.version = kTraceFormatVersion;
}

void TraceStreamReader::read_header() {
  // Header: magic | version | schema table | record count.  The header must
  // be intact even for salvage: without it there is no trustworthy record
  // framing to resynchronize against.
  ensure(sizeof(wire::kMagic));
  if (avail() < sizeof(wire::kMagic) ||
      std::memcmp(buf_.data() + pos_, wire::kMagic,
                  sizeof(wire::kMagic)) != 0) {
    throw TraceFormatError("bad magic");
  }
  pos_ += sizeof(wire::kMagic);

  // The schema table is variable-length: parse what is buffered, and read
  // more only for a header longer than one read chunk.
  for (;;) {
    sim::io::ByteReader h(buf_.data() + pos_, avail(), abs());
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
    buf_.erase(0, keep_from);
    base_ += keep_from;
    pos_ -= keep_from;
    hold_rel_ -= keep_from;
  }
  while (avail() < n && !stream_exhausted_) {
    const std::size_t chunk = std::max(n, kReadChunk);
    const std::size_t old = buf_.size();
    buf_.resize(old + chunk);
    in_->read(buf_.data() + old, static_cast<std::streamsize>(chunk));
    const auto got = static_cast<std::size_t>(in_->gcount());
    buf_.resize(old + got);
    if (got < chunk) stream_exhausted_ = true;
  }
}

void TraceStreamReader::fail(const std::string& what,
                             std::uint64_t offset) const {
  throw TraceFormatError(what, offset,
                         report_.records_read + report_.records_skipped);
}

// --- salvage bookkeeping ----------------------------------------------------

void TraceStreamReader::queue_damage(std::uint8_t tag, std::uint32_t n,
                                     std::uint64_t frame_start_abs) {
  if (lost_packet_ == 0 && lost_device_ == 0) damage_start_ = frame_start_abs;
  if (tag == static_cast<std::uint8_t>(wire::RecordTag::kDevice)) {
    lost_device_ += n;
  } else {
    lost_packet_ += n;
  }
}

void TraceStreamReader::flush_damage() {
  if (lost_packet_ == 0 && lost_device_ == 0) return;
  pending_.push_back(
      {TraceRecord{LostRecords{last_good_, lost_packet_, lost_device_}},
       damage_start_});
  ++report_.lost_markers_synthesized;
  lost_packet_ = 0;
  lost_device_ = 0;
}

void TraceStreamReader::emit_good(TraceRecord rec,
                                  std::uint64_t frame_start_abs) {
  flush_damage();
  last_good_ = record_time(rec);
  pending_.push_back({std::move(rec), frame_start_abs});
  ++report_.records_read;
  if (damage_seen_) ++report_.records_salvaged;
}

void TraceStreamReader::finish() {
  if (done_) return;
  if (strict() && !headerless_ &&
      report_.records_read < report_.records_expected) {
    throw TraceFormatError("unexpected end of stream", abs(),
                           last_record_index_);
  }
  // Clean EOF but fewer frames than the header declared: the stream lost
  // its tail (or the count field itself is damaged) -- either way the
  // reader delivered less than promised, which salvage must report.  This
  // also catches truncation that lands exactly on a frame boundary.
  if (!strict() && !headerless_ &&
      report_.records_read + report_.records_skipped <
          report_.records_expected) {
    report_.truncated = true;
  }
  flush_damage();
  if (opts_.metrics != nullptr) {
    sim::MetricsRegistry& m = *opts_.metrics;
    m.counter(sim::metric::kRecordsSalvaged) += report_.records_salvaged;
    m.counter(sim::metric::kCrcFailures) += report_.crc_failures;
    m.counter(sim::metric::kResyncScans) += report_.resync_scans;
  }
  done_ = true;
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
    if (wire::frame_validates(
            reinterpret_cast<const unsigned char*>(buf_.data()), buf_.size(),
            pos_)) {
      report_.bytes_scanned += abs() - frame_start_abs;
      return true;
    }
    ++pos_;
  }
}

// --- record iteration -------------------------------------------------------

bool TraceStreamReader::next(TraceRecord* out) {
  if (pending_.empty() && !done_) parse_frames();
  if (pending_.empty()) return false;
  *out = std::move(pending_.front().record);
  record_frame_offset_ = pending_.front().frame_offset;
  pending_.pop_front();
  return true;
}

void TraceStreamReader::parse_frames() {
  while (pending_.empty() && !done_) {
    if (strict() && !headerless_ &&
        report_.records_read >= report_.records_expected) {
      finish();
      break;
    }
    hold_rel_ = pos_;
    ensure(wire::kMaxFrameBytes);
    if (avail() == 0) {
      finish();
      break;
    }
    last_record_index_ = report_.records_read + report_.records_skipped;
    const std::uint64_t frame_start = abs();

    if (avail() < sim::io::kFrameHeaderBytes) {
      if (strict()) {
        fail("unexpected end of stream in frame header", abs());
      }
      report_.truncated = true;
      ++report_.records_skipped;
      queue_damage(0, 1, frame_start);
      damage_seen_ = true;
      pos_ = buf_.size();
      finish();
      break;
    }
    const auto* d = reinterpret_cast<const unsigned char*>(buf_.data());
    const auto [tag, len, crc] = sim::io::read_frame_header(d + pos_);
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
      queue_damage(0, 1, frame_start);
      damage_seen_ = true;
      ++report_.records_skipped;
      if (!resync(frame_start)) {
        finish();
        break;
      }
      continue;
    }

    const std::size_t payload_pos = pos_;
    pos_ += len;

    if (sim::io::frame_crc(tag, d + payload_pos, len) != crc) {
      if (strict()) {
        throw TraceFormatError("record checksum mismatch", frame_start,
                               last_record_index_);
      }
      ++report_.crc_failures;
      ++report_.records_skipped;
      queue_damage(tag, 1, frame_start);
      damage_seen_ = true;
      // The length field may be part of the damage (a plausible-but-wrong
      // value skips into the middle of a later frame and cascades).  Only
      // trust the skip if it lands on a frame that checksums, or on EOF.
      ensure(wire::kMaxFrameBytes);
      if (avail() > 0 &&
          !wire::frame_validates(
              reinterpret_cast<const unsigned char*>(buf_.data()),
              buf_.size(), pos_)) {
        if (!resync(frame_start)) {
          finish();
          break;
        }
      }
      continue;
    }
    if (!wire::known_tag(tag)) {
      if (strict()) {
        throw TraceFormatError("unknown record tag " + std::to_string(tag),
                               frame_start, last_record_index_);
      }
      ++report_.unknown_tags;
      ++report_.records_skipped;
      queue_damage(tag, 1, frame_start);
      damage_seen_ = true;
      continue;
    }

    // A checksummed frame of a known type.  Decode from the payload span;
    // a payload longer than the fields we know is a newer minor revision
    // (extra fields are ignored), a shorter one is damage the CRC cannot
    // see (it was written that way), which strict mode rejects.
    sim::io::ByteReader body(d + payload_pos, len, base_ + payload_pos);
    TraceRecord rec =
        wire::decode_payload(static_cast<wire::RecordTag>(tag), body);
    if (body.ok()) {
      emit_good(std::move(rec), frame_start);
      continue;
    }
    if (strict()) {
      throw TraceFormatError("unexpected end of stream", body.offset(),
                             last_record_index_);
    }
    ++report_.records_skipped;
    queue_damage(tag, 1, frame_start);
    damage_seen_ = true;
  }
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
}

TraceStreamWriter::~TraceStreamWriter() {
  try {
    if (!finalized_) finalize();
  } catch (...) {
    // Destructors must not throw; an unfinalized file is detectably
    // invalid (its count field is zero against a non-empty body).
  }
}

void TraceStreamWriter::append(const TraceRecord& record) {
  frame_.clear();
  wire::append_record(frame_, record);
  if (!sink_.write(frame_)) {
    throw std::runtime_error("write failed: " + path_);
  }
  ++records_;
  bytes_ += frame_.size();
}

void TraceStreamWriter::finalize() {
  if (finalized_) return;
  // Patch the header count in place, then make the whole container
  // durable before reporting success: after finalize() returns, the trace
  // survives power loss.
  std::string count;
  sim::io::put<std::uint64_t>(count, records_);
  sim::io::IoResult r = sink_.write_at(count_offset_, count.data(),
                                       count.size());
  if (r.ok) r = sink_.datasync();
  if (r.ok) r = sink_.close();
  if (!r.ok) throw std::runtime_error("finalize failed: " + path_);
  finalized_ = true;
}

}  // namespace tracemod::trace

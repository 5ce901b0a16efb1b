#include "trace/trace_io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "sim/io/durable.hpp"
#include "trace/frame_format.hpp"
#include "trace/stream_reader.hpp"

namespace tracemod::trace {

// --- writer -----------------------------------------------------------------

namespace {

std::string encode_trace(const CollectedTrace& trace) {
  std::string bytes = wire::container_header(trace.records.size());
  for (const TraceRecord& r : trace.records) wire::append_record(bytes, r);
  return bytes;
}

}  // namespace

void write_trace(std::ostream& out, const CollectedTrace& trace) {
  const std::string bytes = encode_trace(trace);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- reader -----------------------------------------------------------------

TraceReadResult read_trace_ex(std::istream& in,
                              const TraceReadOptions& options) {
  // The incremental reader makes every decision the old slurping parse made
  // (same errors, same offsets, same salvage markers); this facade just
  // collects its records into memory.
  TraceStreamReader reader(in, options);

  TraceReadResult result;
  // The count field is attacker/corruption-controlled: never trust it with
  // an allocation.  The stream cannot hold more records than its size
  // allows, so clamp the reservation to that bound (a conservative constant
  // when the stream is not seekable).
  const std::uint64_t expected = reader.report().records_expected;
  std::uint64_t size_bound = 1024;
  if (reader.stream_size()) {
    const std::uint64_t body = *reader.stream_size() > reader.header_bytes()
                                   ? *reader.stream_size() -
                                         reader.header_bytes()
                                   : 0;
    size_bound = body / wire::kMinRecordBytes + 1;
  }
  result.trace.records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(expected, size_bound)));

  TraceRecord rec;
  while (reader.next(&rec)) result.trace.records.push_back(std::move(rec));
  result.report = reader.report();
  return result;
}

CollectedTrace read_trace(std::istream& in) {
  return read_trace_ex(in, TraceReadOptions{}).trace;
}

void save_trace(const std::string& path, const CollectedTrace& trace) {
  // Atomic replace (sim/io/durable.hpp): a collected trace is a final
  // artifact, so a crash or full disk mid-save leaves the previous file
  // (or nothing), never a truncated container that replays short.
  const sim::io::IoResult r =
      sim::io::write_file_atomic(path, encode_trace(trace));
  if (!r.ok) {
    if (r.error.op == sim::io::IoOp::kOpen) {
      throw std::runtime_error("cannot open for writing: " + path);
    }
    throw std::runtime_error("write failed: " + path + " (" +
                             r.error.describe() + ")");
  }
}

CollectedTrace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return read_trace(in);
}

TraceReadResult load_trace_ex(const std::string& path,
                              const TraceReadOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return read_trace_ex(in, options);
}

}  // namespace tracemod::trace

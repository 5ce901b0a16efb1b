// Trace format v2: checksummed framing, strict/salvage reading, damage
// reports, and resistance to hostile length/count fields.
#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <sys/resource.h>
#endif

#include "sim/crc32c.hpp"
#include "sim/metric_names.hpp"
#include "sim/perf/alloc_telemetry.hpp"
#include "sim/sim_context.hpp"
#include "trace/stream_reader.hpp"
#include "trace/synthetic_corpus.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::trace {
namespace {

using sim::crc32c;

constexpr std::size_t kFrameHeader = 9;   // tag u8 + len u32 + crc u32
constexpr std::size_t kPacketFrame = kFrameHeader + 40;
constexpr std::size_t kDeviceFrame = kFrameHeader + 32;
constexpr std::size_t kLostFrame = kFrameHeader + 16;

CollectedTrace sample_trace() {
  CollectedTrace trace;
  PacketRecord p;
  p.at = sim::kEpoch + sim::milliseconds(123);
  p.dir = PacketDirection::kIncoming;
  p.protocol = net::Protocol::kIcmp;
  p.ip_bytes = 1052;
  p.icmp_kind = IcmpKind::kEchoReply;
  p.icmp_id = 42;
  p.icmp_seq = 7;
  p.echo_origin = sim::kEpoch + sim::milliseconds(100);
  trace.records.emplace_back(p);

  PacketRecord t;
  t.at = sim::kEpoch + sim::milliseconds(200);
  t.protocol = net::Protocol::kTcp;
  t.ip_bytes = 1500;
  t.src_port = 20000;
  t.dst_port = 80;
  t.tcp_seq = 123456789ull;
  t.tcp_flags = 0x3;
  trace.records.emplace_back(t);

  trace.records.emplace_back(
      DeviceRecord{sim::kEpoch + sim::seconds(1), 18.5, 11.25, 2.0});
  trace.records.emplace_back(LostRecords{sim::kEpoch + sim::seconds(2), 9, 2});
  return trace;
}

std::string to_bytes(const CollectedTrace& trace) {
  std::ostringstream out;
  write_trace(out, trace);
  return out.str();
}

// Magic + version + schema table + count: identical for every trace.
std::size_t header_size() { return to_bytes(CollectedTrace{}).size(); }

TraceReadResult read_bytes(const std::string& bytes, ReadMode mode,
                           sim::MetricsRegistry* metrics = nullptr) {
  std::istringstream in(bytes);
  return read_trace_ex(in, TraceReadOptions{mode, metrics});
}

std::string tmp(const std::string& name) {
  return testing::TempDir() + "tracemod_trace_v2_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Writes `trace` to `path` through TraceStreamWriter.
void stream_write(const std::string& path, const CollectedTrace& trace) {
  TraceStreamWriter writer(path);
  for (const TraceRecord& r : trace.records) writer.append(r);
  writer.finalize();
}

/// The first `n` records of `trace`, encoded as a trace of their own.
std::string prefix_bytes(const CollectedTrace& trace, std::size_t n) {
  CollectedTrace prefix;
  prefix.records.assign(trace.records.begin(),
                        trace.records.begin() + static_cast<long>(n));
  return to_bytes(prefix);
}

/// The record count field of a container.
std::uint64_t declared_count(const std::string& bytes, std::size_t header) {
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data() + header - sizeof(count), sizeof(count));
  return count;
}

/// `n` records of every type with fields that vary record to record.
CollectedTrace mixed_trace(std::size_t n) {
  CollectedTrace trace;
  trace.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sim::TimePoint at = sim::kEpoch + sim::microseconds(37 * i);
    if (i % 101 == 0) {
      trace.records.emplace_back(
          LostRecords{at, static_cast<std::uint32_t>(i % 7),
                      static_cast<std::uint32_t>(i % 3)});
    } else if (i % 3 == 0) {
      trace.records.emplace_back(
          DeviceRecord{at, 0.5 * static_cast<double>(i % 40),
                       static_cast<double>(i % 16) / 3.0,
                       1.0 / static_cast<double>(i + 1)});
    } else {
      PacketRecord p;
      p.at = at;
      p.dir = i % 2 ? PacketDirection::kIncoming : PacketDirection::kOutgoing;
      p.protocol = i % 5 ? net::Protocol::kIcmp : net::Protocol::kTcp;
      p.ip_bytes = static_cast<std::uint32_t>(40 + i % 1460);
      p.icmp_kind = i % 2 ? IcmpKind::kEchoReply : IcmpKind::kEcho;
      p.icmp_id = 97;
      p.icmp_seq = static_cast<std::uint16_t>(i);
      p.echo_origin = at - sim::microseconds(i % 500);
      p.src_port = static_cast<std::uint16_t>(i * 7);
      p.dst_port = 80;
      p.tcp_seq = 1'000'000'007ull * i;
      p.tcp_flags = static_cast<std::uint8_t>(i % 64);
      trace.records.emplace_back(p);
    }
  }
  return trace;
}

/// Where the writer puts each record's frame, plus the end of the stream.
std::vector<std::size_t> frame_offsets(const CollectedTrace& trace) {
  std::vector<std::size_t> at{header_size()};
  for (const TraceRecord& r : trace.records) {
    const std::size_t frame = std::holds_alternative<PacketRecord>(r)
                                  ? kPacketFrame
                              : std::holds_alternative<DeviceRecord>(r)
                                  ? kDeviceFrame
                                  : kLostFrame;
    at.push_back(at.back() + frame);
  }
  return at;
}

std::uint32_t frame_checksum(std::uint8_t tag, const std::string& payload) {
  return crc32c(payload.data(), payload.size(), crc32c(&tag, 1));
}

std::string make_frame(std::uint8_t tag, const std::string& payload) {
  std::string frame;
  frame.push_back(static_cast<char>(tag));
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&len), 4);
  const std::uint32_t crc = frame_checksum(tag, payload);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame += payload;
  return frame;
}

TEST(TraceV2, RoundTripIsCleanAndVersioned) {
  const CollectedTrace original = sample_trace();
  const auto result = read_bytes(to_bytes(original), ReadMode::kStrict);
  EXPECT_EQ(result.report.version, kTraceFormatVersion);
  EXPECT_TRUE(result.report.clean());
  EXPECT_EQ(result.report.records_read, 4u);
  ASSERT_EQ(result.trace.records.size(), original.records.size());
  const auto& p = std::get<PacketRecord>(result.trace.records[0]);
  EXPECT_EQ(p.ip_bytes, 1052u);
  EXPECT_EQ(p.icmp_seq, 7);
  const auto& l = std::get<LostRecords>(result.trace.records[3]);
  EXPECT_EQ(l.lost_packet_records, 9u);
}

TEST(TraceV2, WriterIsBitStable) {
  const CollectedTrace trace = sample_trace();
  const std::string bytes = to_bytes(trace);
  EXPECT_EQ(bytes, to_bytes(trace));
  // Pinned bytes: any change to the header, the framing or a record
  // layout shows up here, not as a silent format drift.
  EXPECT_EQ(bytes.size(), 434u);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x88c1eaa6u);
}

TEST(TraceV2, StreamWriterMatchesWriteTrace) {
  const std::string path = tmp("sample.tmtr");
  stream_write(path, sample_trace());
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes, to_bytes(sample_trace()));
  EXPECT_EQ(bytes.size(), 434u);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x88c1eaa6u);
  std::filesystem::remove(path);
}

TEST(TraceV2, StreamWriterMatchesWriteTraceAcrossBlocks) {
  // About 9 MB: over a hundred 64 KiB writer blocks and a partial last one.
  const CollectedTrace trace = mixed_trace(200'000);
  const std::string path = tmp("mixed.tmtr");
  stream_write(path, trace);
  const std::string streamed = slurp(path);
  const std::string reference = to_bytes(trace);
  EXPECT_EQ(streamed.size(), reference.size());
  EXPECT_NE((streamed.size() - header_size()) % (64 * 1024), 0u);
  // Compared as one bool: gtest would print megabytes of diff.
  EXPECT_TRUE(streamed == reference);
  std::filesystem::remove(path);
}

TEST(TraceV2, SyntheticCorpusBytesArePinned) {
  // generate_ping_corpus pads toward its target from the writer's byte
  // count, so any drift in how the writer counts or frames shows here.
  CorpusSpec spec;
  spec.duration = sim::seconds(600);
  spec.target_bytes = 2u << 20;
  spec.reply_loss = 0.02;
  spec.seed = 1997;
  const std::string path = tmp("corpus.tmtr");
  const CorpusInfo info = generate_ping_corpus(path, spec);
  const std::string bytes = slurp(path);
  EXPECT_EQ(info.bytes, 2'097'144u);
  EXPECT_EQ(info.records, 50'450u);
  ASSERT_EQ(bytes.size(), info.bytes);
  EXPECT_EQ(crc32c(bytes.data(), bytes.size()), 0x075ab74au);
  std::filesystem::remove(path);
}

TEST(TraceV2, StreamWriterAppendsWithoutAllocating) {
  sim::perf::ensure_alloc_interposer();
  const CollectedTrace trace = mixed_trace(100'000);
  const std::string path = tmp("no_alloc.tmtr");
  TraceStreamWriter writer(path);
  // Warm-up past the first block write.
  for (std::size_t i = 0; i < 5'000; ++i) writer.append(trace.records[i]);
  const sim::perf::AllocTotals before = sim::perf::thread_alloc_totals();
  for (const TraceRecord& r : trace.records) writer.append(r);
  const sim::perf::AllocTotals d = sim::perf::thread_alloc_totals() - before;
  EXPECT_EQ(d.allocs, 0u);
  EXPECT_EQ(d.frees, 0u);
  writer.finalize();
  EXPECT_EQ(writer.records_written(), 105'000u);
  std::filesystem::remove(path);
}

TEST(TraceV2, AbandonedStreamWriterLeavesAFileStrictReadingRefuses) {
  // About 900 KB: whole blocks reach the disk, the last partial one not.
  const CollectedTrace trace = mixed_trace(20'000);
  const std::string path = tmp("abandoned.tmtr");
  std::uint64_t appended = 0;
  {
    TraceStreamWriter writer(path);
    for (const TraceRecord& r : trace.records) writer.append(r);
    appended = writer.bytes_written();
  }  // destroyed without finalize()
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), header_size());
  EXPECT_LT(bytes.size(), appended);
  EXPECT_EQ(declared_count(bytes, header_size()), 0u);
  EXPECT_THROW(load_trace(path), TraceFormatError);

  // Salvage reads every frame whatever the count says: the flushed records
  // come back in order, with nothing reported lost.
  const TraceReadResult salvaged =
      load_trace_ex(path, {ReadMode::kSalvage, nullptr});
  const std::size_t k = salvaged.trace.records.size();
  ASSERT_GT(k, 0u);
  EXPECT_LT(k, trace.records.size());
  EXPECT_EQ(salvaged.report.records_skipped, 0u);
  EXPECT_TRUE(to_bytes(salvaged.trace) == prefix_bytes(trace, k));
  std::filesystem::remove(path);
}

#if !defined(_WIN32)
/// Caps the size of every file this process writes, as a full disk would,
/// and lifts the cap when it goes out of scope.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    handler_ = std::signal(SIGXFSZ, SIG_IGN);  // fail with EFBIG instead
    rlimit cap = saved_;
    cap.rlim_cur = bytes;
    ok_ = setrlimit(RLIMIT_FSIZE, &cap) == 0;
  }
  ~FileSizeCap() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, handler_);
  }
  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  void (*handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

TEST(TraceV2, FailedStreamWriteStaysFailed) {
  const CollectedTrace trace = mixed_trace(20'000);
  const std::string path = tmp("failed.tmtr");
  std::size_t appended = 0;
  {
    FileSizeCap cap(200'000);
    ASSERT_TRUE(cap.ok());
    TraceStreamWriter writer(path);
    try {
      for (const TraceRecord& r : trace.records) {
        writer.append(r);
        ++appended;
      }
    } catch (const std::runtime_error&) {
    }
    ASSERT_LT(appended, trace.records.size()) << "no write failed";
    // Failed for good: neither a further append nor finalize() writes,
    // and the count is never patched over the short body.
    EXPECT_THROW(writer.append(trace.records[0]), std::runtime_error);
    EXPECT_THROW(writer.finalize(), std::runtime_error);
  }
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 200'000u);
  EXPECT_EQ(declared_count(bytes, header_size()), 0u);
  EXPECT_THROW(load_trace(path), TraceFormatError);
  const TraceReadResult salvaged =
      load_trace_ex(path, {ReadMode::kSalvage, nullptr});
  EXPECT_TRUE(salvaged.report.truncated);  // the failed write tore a frame
  EXPECT_GT(salvaged.report.records_read, 0u);
  EXPECT_LT(salvaged.report.records_read, appended);
  std::filesystem::remove(path);
}
#endif  // !_WIN32

TEST(TraceV2, StrictReadRefusesFramesPastTheCount) {
  // A count of k over k + 1 frames: strict reading must not stop quietly
  // at k, which is how an unpatched or damaged count used to pass.
  std::string bytes = to_bytes(sample_trace());
  const std::uint64_t k = 3;
  std::memcpy(bytes.data() + header_size() - sizeof(k), &k, sizeof(k));
  const std::size_t frame_k = header_size() + 2 * kPacketFrame + kDeviceFrame;
  try {
    read_bytes(bytes, ReadMode::kStrict);
    FAIL() << "expected strict read to refuse the extra frame";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("past the declared record count of 3"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("byte offset " + std::to_string(frame_k)),
              std::string::npos)
        << what;
  }
  // Salvage still reads every frame.
  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_EQ(result.report.records_read, 4u);
  EXPECT_EQ(result.trace.records.size(), 4u);
}

TEST(TraceV2, SalvageReadPastTheCountIsNotClean) {
  // A count of k over k + 1 good frames: no frame is damaged, but the
  // read delivered more than the header declares, so the report must not
  // call the stream clean where strict reading refuses it.
  std::string bytes = to_bytes(sample_trace());
  const auto exact = read_bytes(bytes, ReadMode::kSalvage);
  ASSERT_EQ(exact.report.records_read, 4u);
  EXPECT_TRUE(exact.report.clean());

  const std::uint64_t k = 3;
  std::memcpy(bytes.data() + header_size() - sizeof(k), &k, sizeof(k));
  const auto past = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_EQ(past.report.records_read, k + 1);
  EXPECT_EQ(past.report.records_skipped, 0u);
  EXPECT_FALSE(past.report.truncated);
  EXPECT_FALSE(past.report.clean());
}

TEST(TraceV2, CommittedCorpusStrictReadsAsBefore) {
  std::set<std::string> strict_ok;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(TRACEMOD_TEST_DIR) + "/trace/corpus")) {
    if (entry.path().extension() != ".tmtr") continue;
    try {
      load_trace(entry.path().string());
      strict_ok.insert(entry.path().stem().string());
    } catch (const TraceFormatError&) {
    }
  }
  EXPECT_EQ(strict_ok,
            (std::set<std::string>{"empty_v2", "far_reply_v2", "valid_v2"}));
}

TEST(TraceV2, StreamReadsAllocateAConstantPerFile) {
  sim::perf::ensure_alloc_interposer();
  const auto read_allocs = [](const std::string& path, ReadMode mode,
                              std::uint64_t* records) {
    std::ifstream in(path, std::ios::binary);
    const sim::perf::AllocTotals before = sim::perf::thread_alloc_totals();
    TraceStreamReader reader(in, {mode, nullptr});
    TraceRecord rec;
    *records = 0;
    while (reader.next(&rec)) ++*records;
    return (sim::perf::thread_alloc_totals() - before).allocs;
  };
  const std::string small = tmp("read_allocs_10k.tmtr");
  const std::string large = tmp("read_allocs_100k.tmtr");
  stream_write(small, mixed_trace(10'000));
  stream_write(large, mixed_trace(100'000));
  for (const ReadMode mode : {ReadMode::kStrict, ReadMode::kSalvage}) {
    std::uint64_t n_small = 0, n_large = 0;
    const std::uint64_t a_small = read_allocs(small, mode, &n_small);
    const std::uint64_t a_large = read_allocs(large, mode, &n_large);
    EXPECT_EQ(n_small, 10'000u);
    EXPECT_EQ(n_large, 100'000u);
    // The header's schema names and the read buffer, whatever the length.
    EXPECT_EQ(a_large, a_small);
    EXPECT_LE(a_large, 8u);
  }
  std::filesystem::remove(small);
  std::filesystem::remove(large);
}

TEST(TraceV2, SalvageQueuesAMarkerAndTheRecordAfterIt) {
  // Damage right before a good record, and again at the tail: the reader
  // holds a marker and the good record at once, its two-entry bound.
  std::string bytes = to_bytes(sample_trace());
  const std::size_t f1 = header_size() + kPacketFrame;
  const std::size_t f2 = f1 + kPacketFrame;
  const std::size_t f3 = f2 + kDeviceFrame;
  bytes[f1 + kFrameHeader + 2] ^= 0x04;
  bytes[f3 + kFrameHeader + 2] ^= 0x04;

  std::istringstream in(bytes);
  TraceStreamReader reader(in, {ReadMode::kSalvage, nullptr});
  TraceRecord rec;
  std::vector<std::pair<std::size_t, std::uint64_t>> seen;  // index, offset
  while (reader.next(&rec)) {
    seen.emplace_back(rec.index(), reader.record_frame_offset());
  }
  const std::size_t kPacket = TraceRecord(PacketRecord{}).index();
  const std::size_t kDevice = TraceRecord(DeviceRecord{}).index();
  const std::size_t kLost = TraceRecord(LostRecords{}).index();
  const std::vector<std::pair<std::size_t, std::uint64_t>> want = {
      {kPacket, header_size()}, {kLost, f1}, {kDevice, f2}, {kLost, f3}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(reader.report().lost_markers_synthesized, 2u);
  EXPECT_EQ(reader.report().crc_failures, 2u);
}

TEST(TraceV2, DamageAtTheFirstRefillAndInTheTailReadsAsTheLayoutSays) {
  // A trace over more than three 256 KiB read chunks, damaged in turn in
  // the frame that straddles the first refill point (the first chunk's end
  // less kMaxFrameBytes: the reader refills right after it, so a damaged
  // frame there is checked across a compaction), the frame that straddles
  // the first chunk's end, and a frame that starts in the stream's last
  // kMaxFrameBytes.  Every expectation comes from the writer's frame
  // layout: strict reading stops at the damaged frame with its message,
  // offset and index; salvage returns every other record at its own offset
  // and one marker for the damage, stamped with the time of the record
  // before it.
  constexpr std::size_t kChunk = 256 * 1024;
  constexpr std::size_t kMaxFrame = kFrameHeader + 4096;
  const CollectedTrace trace = mixed_trace(18'000);
  const std::string clean = to_bytes(trace);
  const std::vector<std::size_t> at = frame_offsets(trace);
  const std::size_t n = trace.records.size();
  ASSERT_GT(clean.size(), 3 * kChunk);
  ASSERT_EQ(at[n], clean.size());
  // The frame holding byte `offset`, which must not be its first.
  const auto straddling = [&](std::size_t offset) {
    std::size_t k = 0;
    while (at[k + 1] <= offset) ++k;
    EXPECT_LT(at[k], offset);
    return k;
  };
  const std::size_t refill = straddling(kChunk - kMaxFrame);
  const std::size_t chunk_end = straddling(kChunk);
  const std::size_t tail = n - 3;
  ASSERT_GT(at[tail], clean.size() - kMaxFrame);

  enum class Kind {
    kCrc, kLength, kLengthOff, kUnknownTag, kShortPayload, kTruncated
  };
  struct Damage {
    std::string bytes;
    std::string what;       ///< strict error, before its offset
    std::size_t offset;     ///< strict error offset
    bool device = false;    ///< the marker counts a device record
    std::ptrdiff_t shift = 0;  ///< how far the frames after it moved
  };
  const auto damage = [&](Kind kind, std::size_t k) {
    const std::string payload =
        clean.substr(at[k] + kFrameHeader, at[k + 1] - at[k] - kFrameHeader);
    const std::string before = clean.substr(0, at[k]);
    const std::string after = clean.substr(at[k + 1]);
    const bool device = std::holds_alternative<DeviceRecord>(trace.records[k]);
    const auto set_len = [&](Damage* d, std::uint32_t len) {
      d->bytes = clean;
      std::memcpy(d->bytes.data() + at[k] + 1, &len, sizeof(len));
    };
    Damage d;
    switch (kind) {
      case Kind::kCrc:
        d.bytes = clean;
        d.bytes[at[k] + kFrameHeader + 2] ^= 0x04;
        d.what = "record checksum mismatch";
        d.offset = at[k];
        d.device = device;
        break;
      case Kind::kLength:
        set_len(&d, 4097);
        d.what = "implausible record length 4097";
        d.offset = at[k] + kFrameHeader;
        break;
      case Kind::kLengthOff:
        // Plausible but 4 bytes long: the CRC fails, and the skip lands
        // inside the next frame, so salvage rescans from the damaged one.
        set_len(&d, static_cast<std::uint32_t>(payload.size() + 4));
        d.what = "record checksum mismatch";
        d.offset = at[k];
        d.device = device;
        break;
      case Kind::kUnknownTag:
        d.bytes = before + make_frame(77, payload) + after;
        d.what = "unknown record tag 77";
        d.offset = at[k];
        break;
      case Kind::kShortPayload: {
        // A device frame of 20 payload bytes, checksummed as written: its
        // time and signal level fit, its signal quality does not.
        const std::string short_frame =
            make_frame(2, clean.substr(at[k] + kFrameHeader, 20));
        d.bytes = before + short_frame + after;
        d.what = "unexpected end of stream";
        d.offset = at[k] + kFrameHeader + 16;
        d.device = true;
        d.shift = static_cast<std::ptrdiff_t>(short_frame.size()) -
                  static_cast<std::ptrdiff_t>(at[k + 1] - at[k]);
        break;
      }
      case Kind::kTruncated:
        d.bytes = clean.substr(0, at[k] + kFrameHeader + 3);
        d.what = "unexpected end of stream in record payload";
        d.offset = at[k] + kFrameHeader;
        break;
    }
    return d;
  };

  for (const std::size_t k : {refill, chunk_end, tail}) {
    for (const Kind kind :
         {Kind::kCrc, Kind::kLength, Kind::kLengthOff, Kind::kUnknownTag,
          Kind::kShortPayload, Kind::kTruncated}) {
      SCOPED_TRACE("frame " + std::to_string(k) + ", damage " +
                   std::to_string(static_cast<int>(kind)));
      const Damage d = damage(kind, k);
      const bool truncated = kind == Kind::kTruncated;
      const bool rescans =
          kind == Kind::kLength || kind == Kind::kLengthOff || truncated;

      std::istringstream strict_in(d.bytes);
      TraceStreamReader strict(strict_in, {ReadMode::kStrict, nullptr});
      TraceRecord rec;
      std::size_t read = 0;
      try {
        while (strict.next(&rec)) ++read;
        ADD_FAILURE() << "strict read accepted the damage";
      } catch (const TraceFormatError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "trace format error: " + d.what + " at byte offset " +
                      std::to_string(d.offset) + " (record " +
                      std::to_string(k) + ")");
      }
      EXPECT_EQ(read, k);

      CollectedTrace want;
      std::vector<std::uint64_t> want_at;
      for (std::size_t j = 0; j < k; ++j) {
        want.records.push_back(trace.records[j]);
        want_at.push_back(at[j]);
      }
      want.records.emplace_back(LostRecords{
          record_time(trace.records[k - 1]), d.device ? 0u : 1u,
          d.device ? 1u : 0u});
      want_at.push_back(at[k]);
      for (std::size_t j = k + 1; !truncated && j < n; ++j) {
        want.records.push_back(trace.records[j]);
        want_at.push_back(at[j] + d.shift);
      }

      std::istringstream salvage_in(d.bytes);
      TraceStreamReader salvage(salvage_in, {ReadMode::kSalvage, nullptr});
      CollectedTrace got;
      std::vector<std::uint64_t> got_at;
      while (salvage.next(&rec)) {
        got.records.push_back(rec);
        got_at.push_back(salvage.record_frame_offset());
      }
      EXPECT_EQ(to_bytes(got), to_bytes(want));
      EXPECT_EQ(got_at, want_at);
      const TraceReadReport& r = salvage.report();
      EXPECT_EQ(r.records_read, truncated ? k : n - 1);
      EXPECT_EQ(r.records_skipped, 1u);
      EXPECT_EQ(r.records_salvaged, truncated ? 0u : n - 1 - k);
      EXPECT_EQ(r.lost_markers_synthesized, 1u);
      EXPECT_EQ(r.crc_failures,
                kind == Kind::kCrc || kind == Kind::kLengthOff ? 1u : 0u);
      EXPECT_EQ(r.unknown_tags, kind == Kind::kUnknownTag ? 1u : 0u);
      EXPECT_EQ(r.resync_scans, rescans ? 1u : 0u);
      EXPECT_EQ(r.bytes_scanned,
                rescans ? (truncated ? d.bytes.size() : at[k + 1]) - at[k]
                        : 0u);
      EXPECT_EQ(r.truncated, truncated);
    }
  }
}

TEST(TraceV2, Version1HeaderIsRejectedInEveryMode) {
  // Format v1 (unframed records) is retired: its header must be refused as
  // unsupported, never parsed as frames, even by the salvage reader.
  std::string bytes = to_bytes(sample_trace());
  const std::uint16_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  for (const ReadMode mode : {ReadMode::kStrict, ReadMode::kSalvage}) {
    try {
      read_bytes(bytes, mode);
      FAIL() << "expected the v1 header to be rejected";
    } catch (const TraceFormatError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(TraceV2, StrictErrorsCarryOffsetAndRecordIndex) {
  std::string bytes = to_bytes(sample_trace());
  // Flip a payload byte of the second record.
  const std::size_t target = header_size() + kPacketFrame + kFrameHeader + 3;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x40);
  try {
    read_bytes(bytes, ReadMode::kStrict);
    FAIL() << "expected strict read to throw";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset " +
                        std::to_string(header_size() + kPacketFrame)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("(record 1)"), std::string::npos) << what;
  }
  // Cut right after the first frame: the stream ends where record 1
  // would start, so the error names record 1, not the last one parsed.
  const std::size_t cut = header_size() + kPacketFrame;
  try {
    read_bytes(to_bytes(sample_trace()).substr(0, cut), ReadMode::kStrict);
    FAIL() << "expected strict read of a cut stream to throw";
  } catch (const TraceFormatError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unexpected end of stream at byte offset " +
                        std::to_string(cut) + " (record 1)"),
              std::string::npos)
        << what;
  }
}

TEST(TraceV2, SalvageSkipsCrcDamageAndMarksIt) {
  std::string bytes = to_bytes(sample_trace());
  // Damage the device record's payload (record index 2).
  const std::size_t target =
      header_size() + 2 * kPacketFrame + kFrameHeader + 1;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x01);

  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_EQ(result.report.records_read, 3u);
  EXPECT_EQ(result.report.records_skipped, 1u);
  EXPECT_EQ(result.report.crc_failures, 1u);
  EXPECT_EQ(result.report.lost_markers_synthesized, 1u);
  EXPECT_FALSE(result.report.truncated);
  // packet, packet, synthesized marker (for the dead device record), lost.
  ASSERT_EQ(result.trace.records.size(), 4u);
  const auto& marker = std::get<LostRecords>(result.trace.records[2]);
  EXPECT_EQ(marker.lost_device_records, 1u);
  EXPECT_EQ(marker.lost_packet_records, 0u);
  // Stamped with the last good record's time, like a buffer overrun.
  EXPECT_EQ(marker.at, sim::kEpoch + sim::milliseconds(200));
  // The genuine lost marker survives behind the damage.
  EXPECT_EQ(std::get<LostRecords>(result.trace.records[3]).lost_packet_records,
            9u);
}

TEST(TraceV2, SalvageSkipsUnknownTagFrames) {
  // Simulate version skew: splice a well-formed frame of an unknown record
  // type between records 0 and 1.
  const std::string bytes = to_bytes(sample_trace());
  const std::size_t split = header_size() + kPacketFrame;
  const std::string spliced = bytes.substr(0, split) +
                              make_frame(77, "from-the-future") +
                              bytes.substr(split);

  EXPECT_THROW(read_bytes(spliced, ReadMode::kStrict), TraceFormatError);
  const auto result = read_bytes(spliced, ReadMode::kSalvage);
  EXPECT_EQ(result.report.unknown_tags, 1u);
  EXPECT_EQ(result.report.records_skipped, 1u);
  EXPECT_EQ(result.report.crc_failures, 0u);
  EXPECT_EQ(result.report.records_read, 4u);  // every real record recovered
  EXPECT_EQ(result.report.records_salvaged, 3u);  // those after the splice
  ASSERT_EQ(result.trace.records.size(), 5u);  // 4 real + 1 marker
}

TEST(TraceV2, SalvageResyncsAfterCorruptLength) {
  std::string bytes = to_bytes(sample_trace());
  // Smash record 1's length field to an absurd value: the reader cannot
  // trust it to skip, so it must byte-scan to record 2's frame.
  const std::size_t len_off = header_size() + kPacketFrame + 1;
  const std::uint32_t evil = 0x7fffffff;
  std::memcpy(bytes.data() + len_off, &evil, sizeof(evil));

  EXPECT_THROW(read_bytes(bytes, ReadMode::kStrict), TraceFormatError);
  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_EQ(result.report.resync_scans, 1u);
  EXPECT_GT(result.report.bytes_scanned, 0u);
  EXPECT_EQ(result.report.records_read, 3u);  // records 0, 2, 3
  EXPECT_EQ(result.report.records_skipped, 1u);
  ASSERT_EQ(result.trace.records.size(), 4u);  // 3 good + 1 marker
  EXPECT_TRUE(std::holds_alternative<DeviceRecord>(result.trace.records[2]));
}

TEST(TraceV2, SalvageReportsTruncatedTail) {
  std::string bytes = to_bytes(sample_trace());
  bytes.resize(bytes.size() - 10);  // cut into the final lost-record frame

  EXPECT_THROW(read_bytes(bytes, ReadMode::kStrict), TraceFormatError);
  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_TRUE(result.report.truncated);
  EXPECT_EQ(result.report.records_read, 3u);
  EXPECT_EQ(result.report.lost_markers_synthesized, 1u);
  ASSERT_EQ(result.trace.records.size(), 4u);
}

TEST(TraceV2, CountBombCannotForceAllocation) {
  // A corrupted (or hostile) record count must not drive reserve(): the
  // reader bounds it by the bytes actually present.
  std::string bytes = to_bytes(CollectedTrace{});
  const std::uint64_t bomb = ~0ull;
  std::memcpy(bytes.data() + bytes.size() - 8, &bomb, sizeof(bomb));

  EXPECT_THROW(read_bytes(bytes, ReadMode::kStrict), TraceFormatError);
  const auto result = read_bytes(bytes, ReadMode::kSalvage);
  EXPECT_EQ(result.report.records_expected, bomb);
  EXPECT_EQ(result.report.records_read, 0u);
  EXPECT_TRUE(result.report.truncated);
  EXPECT_LE(result.trace.records.capacity(), 16u);
}

TEST(TraceV2, SalvageToleratesDroppedAndDuplicatedFrames) {
  const std::string bytes = to_bytes(sample_trace());
  const std::size_t h = header_size();
  // Drop record 0's frame and duplicate record 2's (count now lies).
  const std::string dev_frame =
      bytes.substr(h + 2 * kPacketFrame, kDeviceFrame);
  const std::string mutated =
      bytes.substr(0, h) + bytes.substr(h + kPacketFrame, kPacketFrame) +
      dev_frame + dev_frame + bytes.substr(h + 2 * kPacketFrame + kDeviceFrame);

  const auto result = read_bytes(mutated, ReadMode::kSalvage);
  // Frames are self-describing: every surviving frame decodes.
  EXPECT_EQ(result.report.records_read, 4u);
  EXPECT_FALSE(result.report.truncated);
  EXPECT_EQ(result.report.crc_failures, 0u);
  ASSERT_EQ(result.trace.records.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<DeviceRecord>(result.trace.records[1]));
  EXPECT_TRUE(std::holds_alternative<DeviceRecord>(result.trace.records[2]));
}

TEST(TraceV2, ExtendedPayloadOfKnownTagIsForwardCompatible) {
  // A future revision may append fields to a known record; the reader
  // decodes the prefix it understands and ignores the rest.
  std::string payload;
  const std::int64_t at_ns = 42'000'000;
  payload.append(reinterpret_cast<const char*>(&at_ns), 8);
  const std::uint32_t lost_p = 3, lost_d = 1;
  payload.append(reinterpret_cast<const char*>(&lost_p), 4);
  payload.append(reinterpret_cast<const char*>(&lost_d), 4);
  payload += "extra-fields-v3";

  std::string bytes = to_bytes(CollectedTrace{});
  const std::uint64_t count = 1;
  std::memcpy(bytes.data() + bytes.size() - 8, &count, sizeof(count));
  bytes += make_frame(3 /* kLost */, payload);

  const auto result = read_bytes(bytes, ReadMode::kStrict);
  EXPECT_TRUE(result.report.clean());
  ASSERT_EQ(result.trace.records.size(), 1u);
  const auto& l = std::get<LostRecords>(result.trace.records[0]);
  EXPECT_EQ(l.lost_packet_records, 3u);
  EXPECT_EQ(l.lost_device_records, 1u);
}

TEST(TraceV2, SalvageBumpsMetricsRegistry) {
  std::string bytes = to_bytes(sample_trace());
  const std::size_t target = header_size() + kFrameHeader + 5;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x10);

  sim::MetricsRegistry metrics;
  const auto result = read_bytes(bytes, ReadMode::kSalvage, &metrics);
  EXPECT_EQ(metrics.value(sim::metric::kCrcFailures), 1u);
  EXPECT_EQ(metrics.value(sim::metric::kRecordsSalvaged),
            result.report.records_salvaged);
  EXPECT_EQ(metrics.value(sim::metric::kResyncScans), 0u);
  EXPECT_GT(result.report.records_salvaged, 0u);
}

}  // namespace
}  // namespace tracemod::trace

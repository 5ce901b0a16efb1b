// Trace format v2: checksummed framing, strict/salvage reading, damage
// reports, and resistance to hostile length/count fields.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "sim/crc32c.hpp"
#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"
#include "trace/trace_io.hpp"

namespace tracemod::trace {
namespace {

using sim::crc32c;

constexpr std::size_t kFrameHeader = 9;   // tag u8 + len u32 + crc u32
constexpr std::size_t kPacketFrame = kFrameHeader + 40;
constexpr std::size_t kDeviceFrame = kFrameHeader + 32;

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

TEST(TraceV2, Crc32cKnownAnswer) {
  // RFC 3720 (iSCSI) test vector: 32 bytes of zeros.
  unsigned char zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  const char* s = "123456789";
  EXPECT_EQ(crc32c(s, 9), 0xE3069283u);
  // Incremental == one-shot.
  EXPECT_EQ(crc32c(s + 4, 5, crc32c(s, 4)), crc32c(s, 9));
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

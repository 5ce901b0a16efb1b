#include "sim/io/codec.hpp"

#include "sim/crc32c.hpp"

namespace tracemod::sim::io {

namespace {

constexpr std::size_t kJournalHeaderBytes = 4 + 2 + 4;

}  // namespace

std::uint32_t frame_crc(std::uint8_t type, const void* payload,
                        std::size_t len) {
  return crc32c(payload, len, crc32c(&type, 1));
}

std::size_t open_frame(std::string& out) {
  const std::size_t at = out.size();
  out.append(kFrameHeaderBytes, '\0');
  return at;
}

void close_frame(std::string& out, std::size_t at, std::uint8_t type) {
  char* header = out.data() + at;
  const char* payload = header + kFrameHeaderBytes;
  const std::size_t len = out.size() - at - kFrameHeaderBytes;
  store<std::uint8_t>(header, type);
  store<std::uint32_t>(header + 1, static_cast<std::uint32_t>(len));
  store<std::uint32_t>(header + 5, frame_crc(type, payload, len));
}

void append_frame(std::string& out, std::uint8_t type,
                  std::string_view payload) {
  const std::size_t at = open_frame(out);
  out.append(payload);
  close_frame(out, at, type);
}

std::string journal_header(const JournalFormat& format,
                           std::uint32_t fingerprint) {
  std::string out(format.magic, sizeof(format.magic));
  put<std::uint16_t>(out, format.version);
  put<std::uint32_t>(out, fingerprint);
  return out;
}

JournalScan scan_journal(
    std::string_view bytes, const JournalFormat& format,
    const std::uint32_t* fingerprint,
    const std::function<bool(std::uint8_t, std::string_view)>& visit) {
  const auto end = [](JournalStatus status, std::string why) {
    return JournalScan{status, std::move(why)};
  };
  if (bytes.size() < kJournalHeaderBytes) {
    return end(JournalStatus::kCorrupt, "journal smaller than its header");
  }
  if (bytes.substr(0, sizeof(format.magic)) !=
      std::string_view(format.magic, sizeof(format.magic))) {
    return end(JournalStatus::kCorrupt, "bad journal magic");
  }
  ByteReader header(bytes.data() + sizeof(format.magic),
                    kJournalHeaderBytes - sizeof(format.magic));
  const auto version = header.get<std::uint16_t>();
  if (version != format.version) {
    return end(JournalStatus::kCorrupt,
               "unsupported journal version " + std::to_string(version));
  }
  const auto fp = header.get<std::uint32_t>();
  if (fingerprint != nullptr && fp != *fingerprint) {
    return end(JournalStatus::kMismatch,
               "journal config fingerprint differs from this run");
  }

  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  for (std::size_t off = kJournalHeaderBytes; off < bytes.size();) {
    const auto at = [off](const char* what) {
      return what + (" at offset " + std::to_string(off));
    };
    const std::size_t remaining = bytes.size() - off;
    if (remaining < kFrameHeaderBytes) {
      return end(JournalStatus::kDroppedTail,
                 at("dropped partial trailing frame header"));
    }
    const FrameHeader h = read_frame_header(data + off);
    if (h.len > format.max_payload) {
      return end(JournalStatus::kCorrupt, at("frame length implausible"));
    }
    if (remaining - kFrameHeaderBytes < h.len) {
      // A killed writer's final append: the frame is declared but its
      // payload never fully landed.  Drop it, keep the intact prefix.
      return end(JournalStatus::kDroppedTail,
                 at("dropped partial trailing record"));
    }
    const std::string_view payload =
        bytes.substr(off + kFrameHeaderBytes, h.len);
    const char* bad = nullptr;
    if (frame_crc(h.type, payload.data(), h.len) != h.crc) {
      bad = "record checksum mismatch";
    } else if (!visit(h.type, payload)) {
      bad = "undecodable record";
    }
    if (bad != nullptr && format.on_bad_frame == BadFrame::kStop) {
      return end(JournalStatus::kCorrupt, at(bad));
    }
    off += kFrameHeaderBytes + h.len;
  }
  return {};
}

}  // namespace tracemod::sim::io

// The binary record codec: the one definition of the encoding shared by
// every on-disk format in the repo -- trace format v2 (trace/trace_io.hpp),
// the TMSJ sweep journal (scenarios/supervisor.cpp), the TMDJ distill
// checkpoint (core/stream_distiller.cpp) and the TMST status snapshot
// (sim/status/status.hpp).
//
//   Fields   fixed-width little-endian integers and IEEE doubles; strings
//            are a length prefix (u16 or u32) followed by the bytes.
//   Frame    type u8 | payload length u32 | crc32c u32 | payload, with the
//            CRC over the type byte followed by the payload, so a flipped
//            type, length or payload byte is caught by one check.
//   Journal  magic[4] | version u16 | fingerprint u32, then frames.
//
// Each format keeps its own record layout and damage policy; only the
// byte-level mechanics live here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

namespace tracemod::sim::io {

// --- fields -----------------------------------------------------------------

/// Stores `v` as sizeof(T) little-endian bytes at `dst`.
template <typename T>
void store(char* dst, T v) {
  static_assert(std::is_arithmetic_v<T>);
  std::memcpy(dst, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    std::reverse(dst, dst + sizeof(T));
  }
}

/// Appends `v` as sizeof(T) little-endian bytes.
template <typename T>
void put(std::string& out, T v) {
  char raw[sizeof(T)];
  store(raw, v);
  out.append(raw, sizeof(T));
}

/// Appends a string as a Len-wide length prefix followed by its bytes.
template <typename Len = std::uint32_t>
void put_str(std::string& out, std::string_view s) {
  put<Len>(out, static_cast<Len>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian reader over a byte span.  A read past the
/// end yields a zero value and fails the reader; the failure is sticky
/// (every later read fails too), so a decoder reads a whole record and
/// checks ok() once.  `base` is the span's absolute offset in its file, so
/// offset() can name the failing field in an error message.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size, std::uint64_t base = 0)
      : data_(static_cast<const unsigned char*>(data)), size_(size),
        base_(base) {}

  template <typename T>
  T get() {
    static_assert(std::is_arithmetic_v<T>);
    T v{};
    if (size_ - pos_ < sizeof(T)) {
      fail();
      return v;
    }
    char raw[sizeof(T)];
    std::memcpy(raw, data_ + pos_, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
      std::reverse(raw, raw + sizeof(T));
    }
    std::memcpy(&v, raw, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads a string written by put_str<Len>.
  template <typename Len = std::uint32_t>
  std::string str() {
    const std::size_t n = get<Len>();
    if (size_ - pos_ < n) {
      fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// True when `count` items of at least `item_bytes` each can still be
  /// present.  Check it before sizing a container from a count read off
  /// disk, so a damaged count cannot drive a large allocation.
  bool fits(std::uint64_t count, std::size_t item_bytes) const {
    return count <= (size_ - pos_) / item_bytes;
  }

  /// Fails the reader (a decoder's own validity check, e.g. an enum out of
  /// range, joins the same sticky flag).
  void fail() {
    if (ok_) fail_offset_ = base_ + pos_;
    ok_ = false;
    pos_ = size_;
  }

  bool ok() const { return ok_; }
  /// True when every byte was consumed (and no read failed).
  bool done() const { return ok_ && pos_ == size_; }
  std::size_t pos() const { return pos_; }
  /// Absolute offset of the next byte, or of the field that failed.
  std::uint64_t offset() const { return ok_ ? base_ + pos_ : fail_offset_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint64_t base_;
  std::uint64_t fail_offset_ = 0;
  bool ok_ = true;
};

// --- CRC frame --------------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 1 + 4 + 4;

/// CRC32C of the type byte followed by the payload.
std::uint32_t frame_crc(std::uint8_t type, const void* payload,
                        std::size_t len);

/// Opens a frame at the end of `out`: reserves its kFrameHeaderBytes and
/// returns their offset.  The caller appends the payload fields straight
/// into `out`, then closes the frame; no payload copy is made.
std::size_t open_frame(std::string& out);

/// Closes the frame opened at `at`: everything appended since is its
/// payload.  Fills in the type, the payload length and the CRC.
void close_frame(std::string& out, std::size_t at, std::uint8_t type);

/// Appends type | len | crc | payload.
void append_frame(std::string& out, std::uint8_t type,
                  std::string_view payload);

struct FrameHeader {
  std::uint8_t type;
  std::uint32_t len;
  std::uint32_t crc;
};

/// Decodes the kFrameHeaderBytes at `p`; the caller has checked they exist.
inline FrameHeader read_frame_header(const unsigned char* p) {
  ByteReader r(p, kFrameHeaderBytes);
  FrameHeader h{};
  h.type = r.get<std::uint8_t>();
  h.len = r.get<std::uint32_t>();
  h.crc = r.get<std::uint32_t>();
  return h;
}

// --- journals ---------------------------------------------------------------

/// What a journal read found.
enum class JournalStatus {
  kMissing,      ///< no file (set by file readers; scan_journal never does)
  kClean,        ///< every frame checksummed and decoded
  kDroppedTail,  ///< a torn trailing frame was dropped (kill mid-append)
  kCorrupt,      ///< damaged header, implausible length, or a bad frame
  kMismatch,     ///< the config fingerprint differs; nothing is reusable
};

/// What a journal does with a complete frame that fails its CRC or that
/// its decoder rejects.
enum class BadFrame {
  kStop,  ///< the journal is kCorrupt and the scan ends there
  kSkip,  ///< skip the frame and keep scanning
};

/// One append-only CRC-framed journal format.
struct JournalFormat {
  char magic[4];
  std::uint16_t version;
  std::uint32_t max_payload;  ///< a longer frame is damage, not data
  BadFrame on_bad_frame;
};

/// magic | version | fingerprint.
std::string journal_header(const JournalFormat& format,
                           std::uint32_t fingerprint);

struct JournalScan {
  JournalStatus status = JournalStatus::kClean;
  std::string message;  ///< why the scan did not end clean
};

/// Walks a journal: the header gate (magic, version, and the fingerprint
/// unless it is null), then every frame in order.  `visit(type, payload)`
/// sees each complete frame whose CRC validates and returns false to
/// reject it.  A torn trailing frame ends the scan as kDroppedTail; a
/// length above max_payload ends it as kCorrupt, because it cannot be
/// skipped.
JournalScan scan_journal(
    std::string_view bytes, const JournalFormat& format,
    const std::uint32_t* fingerprint,
    const std::function<bool(std::uint8_t, std::string_view)>& visit);

}  // namespace tracemod::sim::io

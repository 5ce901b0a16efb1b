#include "sim/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TRACEMOD_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace tracemod::sim {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

// Both paths advance the raw (pre-inverted) register; crc32c inverts on
// the way in and out.
using Update = std::uint32_t (*)(const unsigned char*, std::size_t,
                                 std::uint32_t);

std::uint32_t update_table(const unsigned char* p, std::size_t size,
                           std::uint32_t crc) {
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef TRACEMOD_CRC32C_SSE42
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(
    const unsigned char* p, std::size_t size, std::uint32_t crc) {
  std::uint64_t wide = crc;
  for (; size >= 8; size -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  crc = static_cast<std::uint32_t>(wide);
  for (; size > 0; --size, ++p) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

Update pick_update() {
#ifdef TRACEMOD_CRC32C_SSE42
  // cpu_init makes the feature query valid even when this runs from
  // another translation unit's static initializer.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return update_sse42;
#endif
  return update_table;
}

/// Resolved once, on first use; a function-local static is thread-safe
/// and cannot be read before it is initialized.
Update dispatched_update() {
  static const Update update = pick_update();
  return update;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  return ~dispatched_update()(static_cast<const unsigned char*>(data), size,
                              ~seed);
}

namespace detail {

std::uint32_t crc32c_table(const void* data, std::size_t size,
                           std::uint32_t seed) {
  return ~update_table(static_cast<const unsigned char*>(data), size, ~seed);
}

bool crc32c_uses_hardware() { return dispatched_update() != update_table; }

}  // namespace detail

}  // namespace tracemod::sim

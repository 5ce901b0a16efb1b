// CRC32C: the dispatched entry point and the portable table path agree on
// the RFC 3720 known answers and on seeded random buffers of every small
// length, alignment, seed and split; and on a CPU with SSE4.2 the
// dispatcher must have picked the instruction path.
#include "sim/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "sim/random.hpp"

namespace tracemod::sim {
namespace {

using detail::crc32c_table;

std::vector<unsigned char> random_bytes(Rng& rng, std::size_t n) {
  std::vector<unsigned char> out(n);
  for (unsigned char& b : out) b = static_cast<unsigned char>(rng.next_u64());
  return out;
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 appendix B.4, plus the customary "123456789" check value.
  std::vector<unsigned char> zeros(32, 0x00);
  std::vector<unsigned char> ones(32, 0xFF);
  std::vector<unsigned char> up(32);
  std::iota(up.begin(), up.end(), static_cast<unsigned char>(0));
  const std::vector<unsigned char> down(up.rbegin(), up.rend());
  const char* digits = "123456789";

  using Fn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);
  for (const Fn fn : {Fn{&crc32c}, Fn{&crc32c_table}}) {
    EXPECT_EQ(fn(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(fn(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(fn(up.data(), up.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(fn(down.data(), down.size(), 0), 0x113FDB5Cu);
    EXPECT_EQ(fn(digits, 9, 0), 0xE3069283u);
    EXPECT_EQ(fn(digits, 0, 0), 0u);
    // Incremental == one-shot.
    EXPECT_EQ(fn(digits + 4, 5, fn(digits, 4, 0)), 0xE3069283u);
  }
}

TEST(Crc32c, DispatchedMatchesTableOnEveryLengthAndAlignment) {
  Rng rng(20240917);
  const std::vector<unsigned char> buf = random_bytes(rng, 1024 + 8);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len + align <= buf.size() && len <= 1024;
         ++len) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(crc32c(p, len), crc32c_table(p, len))
          << "len " << len << " align " << align;
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      ASSERT_EQ(crc32c(p, len, seed), crc32c_table(p, len, seed))
          << "len " << len << " align " << align << " seed " << seed;
    }
  }
}

TEST(Crc32c, DispatchedMatchesTableOnLargeBuffersAndSplits) {
  Rng rng(3720);
  for (int trial = 0; trial < 64; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64 * 1024));
    const auto align = static_cast<std::size_t>(rng.uniform_int(0, 7));
    const std::vector<unsigned char> buf = random_bytes(rng, len + align);
    const unsigned char* p = buf.data() + align;
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t whole = crc32c_table(p, len, seed);
    ASSERT_EQ(crc32c(p, len, seed), whole) << "len " << len;

    // Chained calls over a random split equal one call, on both paths.
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len)));
    EXPECT_EQ(crc32c(p + cut, len - cut, crc32c(p, cut, seed)), whole)
        << "len " << len << " cut " << cut;
    EXPECT_EQ(crc32c_table(p + cut, len - cut, crc32c_table(p, cut, seed)),
              whole)
        << "len " << len << " cut " << cut;
  }
}

TEST(Crc32c, DispatcherUsesTheInstructionWhereTheCpuHasIt) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_TRUE(detail::crc32c_uses_hardware());
    return;
  }
#endif
  EXPECT_FALSE(detail::crc32c_uses_hardware());
}

}  // namespace
}  // namespace tracemod::sim

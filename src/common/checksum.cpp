#include "common/checksum.h"

#include <array>
#include <cstring>

#include "common/error.h"
#include "common/isa.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ceresz {

namespace {

constexpr u32 kPoly = 0x82f63b78u;  // CRC32C, reflected

// 8 slice tables: table[0] is the classic byte-at-a-time table, table[k]
// advances a byte that sits k bytes deeper in the message.
using SliceTables = std::array<std::array<u32, 256>, 8>;

constexpr SliceTables make_tables() {
  SliceTables t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (u32 i = 0; i < 256; ++i) {
    u32 crc = t[0][i];
    for (std::size_t k = 1; k < t.size(); ++k) {
      crc = t[0][crc & 0xffu] ^ (crc >> 8);
      t[k][i] = crc;
    }
  }
  return t;
}

constexpr SliceTables kTables = make_tables();

}  // namespace

u32 crc32c(std::span<const u8> data, u32 seed) {
  static const bool hardware = host_isa() == HostIsa::kAvx2;
  return hardware ? crc32c_sse42(data, seed) : crc32c_portable(data, seed);
}

u32 crc32c_portable(std::span<const u8> data, u32 seed) {
  u32 crc = ~seed;
  const u8* p = data.data();
  std::size_t n = data.size();

  while (n >= 8) {
    crc ^= static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
    crc = kTables[7][crc & 0xffu] ^ kTables[6][(crc >> 8) & 0xffu] ^
          kTables[5][(crc >> 16) & 0xffu] ^ kTables[4][crc >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    ++p;
    --n;
  }
  return ~crc;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) u32 crc32c_sse42(std::span<const u8> data,
                                                   u32 seed) {
  u64 crc = ~seed;
  const u8* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    u64 word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  u32 crc32 = static_cast<u32>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#else
u32 crc32c_sse42(std::span<const u8>, u32) {
  CERESZ_FAIL("crc32c_sse42: SSE4.2 needs an x86-64 host");
}
#endif

}  // namespace ceresz

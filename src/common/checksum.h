// CRC32C (Castagnoli) checksum, used by the chunked container to detect
// and localize payload corruption per chunk.
//
// Two implementations compute the same plain CRC32C values: the SSE4.2
// crc32 instruction, used when host_isa() (common/isa.h) is kAvx2, and a
// portable slicing-by-8 table, kept as the reference and used elsewhere.
#pragma once

#include <span>

#include "common/types.h"

namespace ceresz {

/// CRC32C of `data`. `seed` is the running CRC for incremental use:
/// crc32c(ab) == crc32c(b, crc32c(a)).
u32 crc32c(std::span<const u8> data, u32 seed = 0);

/// The portable slicing-by-8 implementation of crc32c().
u32 crc32c_portable(std::span<const u8> data, u32 seed = 0);

/// The SSE4.2 implementation of crc32c(). Call only when host_isa() is
/// kAvx2; throws Error on a host that is not x86-64.
u32 crc32c_sse42(std::span<const u8> data, u32 seed = 0);

/// Streaming accumulator over multiple buffers.
class Crc32c {
 public:
  void update(std::span<const u8> data) { crc_ = crc32c(data, crc_); }
  u32 value() const { return crc_; }
  void reset() { crc_ = 0; }

 private:
  u32 crc_ = 0;
};

}  // namespace ceresz

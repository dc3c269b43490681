// Little-endian integer fields, the byte order of every CereSZ on-disk and
// wire format (stream container, block records, archive, CSNP frames and
// the baselines' streams).
#pragma once

#include <vector>

#include "common/types.h"

namespace ceresz {

inline void append_u16(std::vector<u8>& out, u16 v) {
  out.push_back(static_cast<u8>(v & 0xff));
  out.push_back(static_cast<u8>(v >> 8));
}

inline void append_u32(std::vector<u8>& out, u32 v) {
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<u8>((v >> (8 * b)) & 0xff));
}

inline void append_u64(std::vector<u8>& out, u64 v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<u8>((v >> (8 * b)) & 0xff));
}

/// Overwrite a field in place (e.g. a length patched in after the fact).
inline void write_u32(u8* p, u32 v) {
  for (int b = 0; b < 4; ++b) p[b] = static_cast<u8>((v >> (8 * b)) & 0xff);
}

inline void write_u64(u8* p, u64 v) {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<u8>((v >> (8 * b)) & 0xff);
}

inline u16 read_u16(const u8* p) {
  return static_cast<u16>(p[0] | (static_cast<u16>(p[1]) << 8));
}

inline u32 read_u32(const u8* p) {
  u32 v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<u32>(p[b]) << (8 * b);
  return v;
}

inline u64 read_u64(const u8* p) {
  u64 v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<u64>(p[b]) << (8 * b);
  return v;
}

}  // namespace ceresz

// Host kernel tables: the per-block CereSZ stages behind one dispatch point.
//
// Every host codec path calls the table kernels() returns: BlockCodec (and
// through it StreamCodec, ParallelEngine and the wafer simulator's
// sub-stage executor), the wafer profiler's encode_block, the public stage
// functions of prequant.h, lorenzo.h and flenc.h (and through them the
// cuSZ baseline), and value_bounds() below, which every REL bound resolves
// through. There are two tables, chosen once from CPUID
// (common/isa.h):
//   - scalar: portable C++, the reference, and the only table on hosts
//     that are not x86-64;
//   - avx2: 8-lane kernels compiled with a function-level target
//     attribute, so the build needs no -march flag. Its block-structured
//     kernels hand block sizes that are not a multiple of 32 to the
//     scalar code.
//
// Both tables produce identical bytes and raise identical errors; see the
// "Host kernels" section of docs/engine.md for the rules that keep them
// so. Range and overflow checks are folded into one flag per call and
// raised after the loop; on error the output holds unspecified values.
#pragma once

#include <cstddef>
#include <span>

#include "common/types.h"

namespace ceresz::core {

/// Smallest and largest value of an array.
struct ValueBounds {
  f32 lo = 0.0f;
  f32 hi = 0.0f;

  /// hi - lo in f64: the value range a REL bound is relative to.
  f64 range() const { return static_cast<f64>(hi) - static_cast<f64>(lo); }
};

struct KernelTable {
  /// "scalar" or "avx2".
  const char* isa;

  // Element-wise stages on n elements (any n).

  /// out[i] = floor(in[i] * (1 / two_eps) + 0.5), in f64. Throws Error if
  /// a value is NaN or does not fit in 32 bits.
  void (*prequant)(const f32* in, i32* out, std::size_t n, f64 two_eps);
  /// out[i] = f32(f64(in[i]) * two_eps).
  void (*dequant)(const i32* in, f32* out, std::size_t n, f64 two_eps);
  /// out[0] = in[0], out[i] = in[i] - in[i-1]; in may equal out. Throws
  /// Error if a difference overflows 32 bits.
  void (*lorenzo_forward)(const i32* in, i32* out, std::size_t n);
  /// out[i] = in[0] + ... + in[i]; in may equal out. Throws Error if a
  /// prefix sum overflows 32 bits.
  void (*lorenzo_inverse)(const i32* in, i32* out, std::size_t n);

  /// Smallest and largest of in[0..n) ({0, 0} when n is 0) by the rule
  /// lo = v < lo ? v : lo (hi mirrored), starting from lo = hi = in[0]:
  /// a NaN at in[0] makes both NaN, a later NaN is skipped. Tables may
  /// differ only in the sign of a zero lo or hi, so range() is the same.
  ValueBounds (*value_bounds)(const f32* in, std::size_t n);

  // Fixed-length encoding stages on n elements, n a multiple of 8. Bit i
  // of sign byte or plane byte b belongs to element 8b + i.

  /// abs[i] = |in[i]| (exact in u32, INT32_MIN included); sign bit i set
  /// when in[i] < 0. `in` may alias `abs`.
  void (*split_sign)(const i32* in, u32* abs, u8* signs, std::size_t n);
  /// Maximum of abs[0..n) (0 when n is 0; n need not be a multiple of 8).
  u32 (*block_max)(const u32* abs, std::size_t n);
  /// Write planes 0..fl-1 of abs (fl <= 32), each n/8 bytes, one after
  /// another into out.
  void (*bit_shuffle)(const u32* abs, std::size_t n, u32 fl, u8* out);
  /// Rebuild abs from planes 0..fl-1 (fl <= 32); higher bits are zero.
  void (*bit_unshuffle)(const u8* planes, std::size_t n, u32 fl, u32* abs);
  /// out[i] = abs[i] negated when sign bit i is set, wrapped to 32 bits.
  void (*apply_sign)(const u32* abs, const u8* signs, i32* out,
                     std::size_t n);

  // Fused block kernels (n a multiple of 8): the stages above, run
  // without intermediate buffers.

  /// prequant -> lorenzo_forward -> split_sign on one block, writing
  /// abs[0..n) and signs[0..n/8). Returns the OR of abs, whose bit width
  /// is the block's fixed length. Throws like prequant, then like
  /// lorenzo_forward.
  u32 (*encode_block)(const f32* in, std::size_t n, f64 two_eps, u32* abs,
                      u8* signs);
  /// bit_unshuffle(fl planes) -> apply_sign -> lorenzo_inverse -> dequant
  /// on one block. Throws like lorenzo_inverse.
  void (*decode_block)(const u8* signs, const u8* planes, u32 fl,
                       std::size_t n, f64 two_eps, f32* out);
};

/// The portable reference table.
const KernelTable& scalar_kernels();

/// The AVX2 table, or nullptr when host_isa() is not kAvx2.
const KernelTable* avx2_kernels();

/// The table every host codec path runs: AVX2 when the host has it,
/// scalar otherwise.
const KernelTable& kernels();

/// `table`'s value_bounds over `values`. StreamCodec, the engine's
/// per-slice min/max, the profiler and the baselines all resolve REL
/// bounds with it, so they derive the same ε.
ValueBounds value_bounds(std::span<const f32> values,
                         const KernelTable& table = kernels());

}  // namespace ceresz::core

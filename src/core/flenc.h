// Stage 3: fixed-length encoding.
//
// Per block: store each element's sign as one packed bit, find the maximum
// absolute value, derive the number of effective bits ("fixed length"), and
// bit-shuffle: for every effective bit position k, gather the k-th bit of
// all elements into a contiguous bit-plane of L/8 bytes (Figure 8). A block
// of L elements with fixed length f therefore encodes into L/8 sign bytes
// plus f·L/8 payload bytes.
//
// The four sub-stages (Sign, Max, GetLength, Bit-shuffle) are exposed
// individually so each can be tested and timed on its own. The codec runs
// them fused (KernelTable::encode_block); the pipeline scheduler spreads
// their cycle costs, and the per-bit slices of Bit-shuffle, across PEs
// (Section 4.2) without running them separately.
#pragma once

#include <span>

#include "common/types.h"

namespace ceresz::core {

/// Sub-stage "Sign": pack sign bits (1 = negative) into sign_bytes
/// (input.size()/8 bytes, LSB-first within each byte) and write absolute
/// values. Prequant and Lorenzo both admit INT32_MIN; its absolute value
/// 2^31 is still exact because abs is computed in u32.
void split_sign(std::span<const i32> input, std::span<u32> abs_out,
                std::span<u8> sign_bytes);

/// Sub-stage "Max": maximum of the absolute values (0 for an empty span).
u32 block_max(std::span<const u32> abs_values);

/// Sub-stage "GetLength": number of effective bits of `value`
/// (bit_width; 0 for value 0).
u32 effective_bits(u32 value);

/// Sub-stage "Bit-shuffle": scatter the low `fixed_length` bits of every
/// element into bit-planes. Plane k (k in [0, fixed_length)) occupies
/// L/8 bytes; element j's k-th bit lands in plane k, byte j/8, bit j%8.
/// `out` must hold fixed_length * L/8 bytes and is fully overwritten.
void bit_shuffle(std::span<const u32> abs_values, u32 fixed_length,
                 std::span<u8> out);

/// Inverse of bit_shuffle: reassemble absolute values from planes.
void bit_unshuffle(std::span<const u8> planes, u32 fixed_length,
                   std::span<u32> abs_out);

/// Reapply packed signs to absolute values.
void apply_sign(std::span<const u32> abs_values,
                std::span<const u8> sign_bytes, std::span<i32> output);

}  // namespace ceresz::core

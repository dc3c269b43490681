#include "core/flenc.h"

#include <bit>

#include "common/error.h"
#include "core/kernels.h"

namespace ceresz::core {

void split_sign(std::span<const i32> input, std::span<u32> abs_out,
                std::span<u8> sign_bytes) {
  CERESZ_CHECK(input.size() == abs_out.size(), "split_sign: size mismatch");
  CERESZ_CHECK(input.size() % 8 == 0,
               "split_sign: block size must be a multiple of 8");
  CERESZ_CHECK(sign_bytes.size() == input.size() / 8,
               "split_sign: sign buffer size mismatch");
  kernels().split_sign(input.data(), abs_out.data(), sign_bytes.data(),
                       input.size());
}

u32 block_max(std::span<const u32> abs_values) {
  return kernels().block_max(abs_values.data(), abs_values.size());
}

u32 effective_bits(u32 value) {
  return static_cast<u32>(std::bit_width(value));
}

void bit_shuffle(std::span<const u32> abs_values, u32 fixed_length,
                 std::span<u8> out) {
  CERESZ_CHECK(abs_values.size() % 8 == 0,
               "bit_shuffle: block size must be a multiple of 8");
  CERESZ_CHECK(fixed_length <= 32, "bit_shuffle: fixed length exceeds 32");
  CERESZ_CHECK(out.size() == abs_values.size() / 8 * fixed_length,
               "bit_shuffle: output buffer size mismatch");
  kernels().bit_shuffle(abs_values.data(), abs_values.size(), fixed_length,
                        out.data());
}

void bit_unshuffle(std::span<const u8> planes, u32 fixed_length,
                   std::span<u32> abs_out) {
  CERESZ_CHECK(abs_out.size() % 8 == 0,
               "bit_unshuffle: block size must be a multiple of 8");
  const std::size_t plane_bytes = abs_out.size() / 8;
  CERESZ_CHECK(planes.size() == plane_bytes * fixed_length,
               "bit_unshuffle: input buffer size mismatch");
  CERESZ_CHECK(fixed_length <= 32, "bit_unshuffle: fixed length exceeds 32");
  kernels().bit_unshuffle(planes.data(), abs_out.size(), fixed_length,
                          abs_out.data());
}

void apply_sign(std::span<const u32> abs_values,
                std::span<const u8> sign_bytes, std::span<i32> output) {
  CERESZ_CHECK(abs_values.size() == output.size(),
               "apply_sign: size mismatch");
  CERESZ_CHECK(sign_bytes.size() == abs_values.size() / 8,
               "apply_sign: sign buffer size mismatch");
  CERESZ_CHECK(abs_values.size() % 8 == 0,
               "apply_sign: block size must be a multiple of 8");
  kernels().apply_sign(abs_values.data(), sign_bytes.data(), output.data(),
                       abs_values.size());
}

}  // namespace ceresz::core

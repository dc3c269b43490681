#include "core/prequant.h"

#include <cmath>

#include "common/error.h"
#include "core/kernels.h"

namespace ceresz::core {

namespace {
constexpr f64 kMaxQuant = 2147483647.0;
}  // namespace

void prequant_multiply(std::span<const f32> input, std::span<f64> scratch,
                       f64 recip_two_eps) {
  CERESZ_CHECK(input.size() == scratch.size(),
               "prequant_multiply: size mismatch");
  for (std::size_t i = 0; i < input.size(); ++i) {
    scratch[i] = static_cast<f64>(input[i]) * recip_two_eps;
  }
}

void prequant_add_floor(std::span<const f64> scratch, std::span<i32> output) {
  CERESZ_CHECK(scratch.size() == output.size(),
               "prequant_add_floor: size mismatch");
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    const f64 rounded = std::floor(scratch[i] + 0.5);
    CERESZ_CHECK(rounded >= -kMaxQuant - 1.0 && rounded <= kMaxQuant,
                 "prequant: quantized value exceeds 32 bits; the error bound "
                 "is too small for this data's magnitude");
    output[i] = static_cast<i32>(rounded);
  }
}

void prequant(std::span<const f32> input, std::span<i32> output, f64 two_eps) {
  CERESZ_CHECK(input.size() == output.size(), "prequant: size mismatch");
  CERESZ_CHECK(two_eps > 0.0, "prequant: error bound must be positive");
  kernels().prequant(input.data(), output.data(), input.size(), two_eps);
}

void dequant(std::span<const i32> input, std::span<f32> output, f64 two_eps) {
  CERESZ_CHECK(input.size() == output.size(), "dequant: size mismatch");
  kernels().dequant(input.data(), output.data(), input.size(), two_eps);
}

}  // namespace ceresz::core

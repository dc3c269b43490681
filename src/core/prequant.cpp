#include "core/prequant.h"

#include "common/error.h"
#include "core/kernels.h"

namespace ceresz::core {

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

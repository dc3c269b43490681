#include "core/lorenzo.h"

#include "common/error.h"
#include "core/kernels.h"

namespace ceresz::core {

void lorenzo_forward(std::span<const i32> input, std::span<i32> output) {
  CERESZ_CHECK(input.size() == output.size(), "lorenzo_forward: size mismatch");
  kernels().lorenzo_forward(input.data(), output.data(), input.size());
}

void lorenzo_inverse(std::span<const i32> input, std::span<i32> output) {
  CERESZ_CHECK(input.size() == output.size(), "lorenzo_inverse: size mismatch");
  kernels().lorenzo_inverse(input.data(), output.data(), input.size());
}

}  // namespace ceresz::core

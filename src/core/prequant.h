// Stage 1: pre-quantization — the only lossy step of CereSZ.
//
// p_i = round(e_i / 2ε), reconstructed as e'_i = p_i · 2ε, guaranteeing
// |e_i - e'_i| ≤ ε. Following the paper's implementation (Section 4.2) the
// division is a multiplication by the precomputed reciprocal of 2ε and the
// rounding is an addition of 0.5 followed by a floor. On the PE these are
// two sub-stages with very different cycle costs (Table 2); that split
// lives in the cost model (core/costmodel.h), while every host path runs
// the one KernelTable prequant.
#pragma once

#include <span>

#include "common/types.h"

namespace ceresz::core {

/// p_i = floor(e_i · (1/2ε) + 0.5). Throws if a value is NaN or its
/// quantized value does not fit in 32 bits (error bound too small for the
/// data's magnitude).
void prequant(std::span<const f32> input, std::span<i32> output, f64 two_eps);

/// Inverse: e'_i = p_i · 2ε.
void dequant(std::span<const i32> input, std::span<f32> output, f64 two_eps);

}  // namespace ceresz::core

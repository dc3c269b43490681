// Small numeric helpers: running min/max/mean and array reductions. The
// min/max alone that resolves a REL bound is core::value_bounds
// (core/kernels.h).
#pragma once

#include <span>

#include "common/types.h"

namespace ceresz {

/// Summary statistics of a float array, computed in one pass.
struct ArraySummary {
  f64 min = 0.0;
  f64 max = 0.0;
  f64 mean = 0.0;
  f64 stddev = 0.0;
  std::size_t count = 0;

  /// Value range (max - min).
  f64 range() const { return max - min; }
};

/// One-pass min/max/mean/variance (Welford) over `values`.
ArraySummary summarize(std::span<const f32> values);

/// Largest absolute difference between two equal-length arrays.
f64 max_abs_diff(std::span<const f32> a, std::span<const f32> b);

}  // namespace ceresz

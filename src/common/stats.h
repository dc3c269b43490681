// Small numeric helpers: running min/max/mean and array reductions.
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

  /// Value range (max - min); the basis of REL error bounds.
  f64 range() const { return max - min; }
};

/// One-pass min/max/mean/variance (Welford) over `values`.
ArraySummary summarize(std::span<const f32> values);

/// Smallest and largest of `values` ({0, 0} when empty).
struct ValueBounds {
  f64 lo = 0.0;
  f64 hi = 0.0;

  f64 range() const { return hi - lo; }
};

/// min/max of `values` in one pass, without summarize()'s mean and
/// variance. StreamCodec and ParallelEngine (per slice) resolve REL
/// bounds with it, so both derive the same ε.
ValueBounds value_bounds(std::span<const f32> values);

/// Largest absolute difference between two equal-length arrays.
f64 max_abs_diff(std::span<const f32> a, std::span<const f32> b);

}  // namespace ceresz

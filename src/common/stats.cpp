#include "common/stats.h"

#include <cmath>

#include "common/error.h"

namespace ceresz {

ArraySummary summarize(std::span<const f32> values) {
  ArraySummary s;
  if (values.empty()) return s;
  s.min = values[0];
  s.max = values[0];
  f64 mean = 0.0;
  f64 m2 = 0.0;
  std::size_t n = 0;
  for (f32 v : values) {
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
    ++n;
    const f64 delta = v - mean;
    mean += delta / static_cast<f64>(n);
    m2 += delta * (v - mean);
  }
  s.mean = mean;
  s.stddev = n > 1 ? std::sqrt(m2 / static_cast<f64>(n)) : 0.0;
  s.count = n;
  return s;
}

f64 max_abs_diff(std::span<const f32> a, std::span<const f32> b) {
  CERESZ_CHECK(a.size() == b.size(), "max_abs_diff: size mismatch");
  f64 worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const f64 d = std::fabs(static_cast<f64>(a[i]) - static_cast<f64>(b[i]));
    if (d > worst) worst = d;
  }
  return worst;
}

}  // namespace ceresz

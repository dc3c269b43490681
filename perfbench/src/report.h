// Result plumbing of the repository benchmark: named metrics with
// units, order statistics, and the one-line JSON result the runner
// relays as the last line of standard output.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using ceresz::f64;
using ceresz::u64;

struct Metric {
  f64 value = 0.0;
  std::string unit;
};

/// Metrics of one run, keyed by name (printed in name order).
using Metrics = std::map<std::string, Metric>;

/// What a workload hands back to main(): the output check, the request
/// accounting, and every metric it measured.
struct Outcome {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  Metrics metrics;

  void set(const std::string& name, f64 value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Wall seconds of one run of the calibration kernel: 4 threads, each a
/// fixed chain of integer multiply-adds, started and joined like an
/// engine call.
f64 calibration_seconds();

/// The kernel's time on a quiet host (the development host's fastest).
inline constexpr f64 kQuietCalibrationSeconds = 0.035;

/// How much slower than quiet the host runs right now. Other tenants of
/// the shared host take 0-40% of its CPU (hypervisor steal), changing
/// over tens of seconds, which moved raw throughput 2x between runs.
/// Each window's timings are therefore scaled by the slowdown measured
/// just before and just after it, with no requests in flight, and
/// reported at quiet-host speed.
inline f64 host_slowdown() {
  return calibration_seconds() / kQuietCalibrationSeconds;
}

/// Completed requests of one measurement window. The timing metrics of
/// a phase are computed per window and reported as the median over its
/// windows, so a burst of interference on the shared host moves a few
/// windows rather than the result.
struct Window {
  std::vector<f64> compress_ms;
  std::vector<f64> decompress_ms;
  f64 compress_bytes = 0.0;    ///< uncompressed bytes
  f64 decompress_bytes = 0.0;
  f64 compress_s = 0.0;        ///< time base of the MB/s figures
  f64 decompress_s = 0.0;
  f64 slowdown = 1.0;          ///< host_slowdown() around the window

  void add(bool compress, f64 latency_ms, f64 bytes) {
    (compress ? compress_ms : decompress_ms).push_back(latency_ms);
    (compress ? compress_bytes : decompress_bytes) += bytes;
  }
};

struct WindowedTimings {
  f64 compress_mb_s = 0.0;
  f64 decompress_mb_s = 0.0;
  f64 compress_p50_ms = 0.0;
  f64 compress_p95_ms = 0.0;
  f64 decompress_p50_ms = 0.0;
  f64 decompress_p95_ms = 0.0;
};

/// Median over `windows` of each window's MB/s and latency percentiles,
/// each scaled to quiet-host speed by the window's slowdown.
WindowedTimings window_medians(const std::vector<Window>& windows);

/// Median of `v` (mean of the two middle values for even sizes); 0 for
/// an empty sample.
f64 median(std::vector<f64> v);

/// Nearest-rank percentile, `p` in (0, 1]; 0 for an empty sample.
f64 percentile(std::vector<f64> v, f64 p);

/// Peak resident set size of this process in MB.
f64 peak_rss_mb();

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string result_json(const Outcome& out);

}  // namespace perfbench

#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/timer.h"

namespace perfbench {

f64 median(std::vector<f64> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  if (v.size() % 2 == 1) return v[mid];
  const f64 upper = v[mid];
  const f64 lower = *std::max_element(v.begin(), v.begin() + mid);
  return 0.5 * (lower + upper);
}

f64 percentile(std::vector<f64> v, f64 p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const f64 rank = std::ceil(p * static_cast<f64>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

f64 peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

f64 calibration_seconds() {
  constexpr int kThreads = 4;
  constexpr u64 kSteps = 20'000'000;
  std::vector<u64> sink(kThreads);
  const u64 start = ceresz::now_ns();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sink, t] {
      u64 x = static_cast<u64>(t) + 1;
      for (u64 i = 0; i < kSteps; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink[static_cast<std::size_t>(t)] = x;
    });
  }
  for (auto& w : workers) w.join();
  const f64 seconds = static_cast<f64>(ceresz::now_ns() - start) * 1e-9;
  // Keep the chains observable so they are not optimized away.
  u64 any = 0;
  for (u64 x : sink) any |= x;
  return any != 0 ? seconds : seconds * 2;
}

WindowedTimings window_medians(const std::vector<Window>& windows) {
  std::vector<f64> c_rate, d_rate, c50, c95, d50, d95;
  for (const Window& w : windows) {
    if (w.compress_ms.empty() || w.decompress_ms.empty()) continue;
    const f64 k = w.slowdown;
    c_rate.push_back(w.compress_bytes / 1e6 / w.compress_s * k);
    d_rate.push_back(w.decompress_bytes / 1e6 / w.decompress_s * k);
    c50.push_back(percentile(w.compress_ms, 0.50) / k);
    c95.push_back(percentile(w.compress_ms, 0.95) / k);
    d50.push_back(percentile(w.decompress_ms, 0.50) / k);
    d95.push_back(percentile(w.decompress_ms, 0.95) / k);
  }
  return {median(c_rate), median(d_rate), median(c50),
          median(c95),    median(d50),    median(d95)};
}

std::string result_json(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : out.metrics) {
    // %.17g keeps every digit, so repeated deterministic values compare
    // exactly and timings are never rounded to a constant.
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit +
         "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench

// perfbench: the repository benchmark binary.
//
//   perfbench --workload <codec_bulk|wafer_tenants>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics, a traced run the per-layer ones (the
// two lists below, mirrored by BENCHMARK.json). Exit status: 0 when
// every output checked out, 1 when one did not (the result is still
// printed), 2 on a usage or internal error (nothing printed).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Outcome;
using perfbench::RunConfig;

using NameUnit = std::pair<const char*, const char*>;

const std::vector<NameUnit> kEndToEnd = {
    {"setup_s", "s"},
    {"compress_mb_s", "MB/s"},
    {"decompress_mb_s", "MB/s"},
    {"compress_p50_ms", "ms"},
    {"decompress_p50_ms", "ms"},
    {"ratio", "x"},
    {"max_err_over_eps", "x"},
    {"success_frac", "fraction"},
    {"sim_gbps", "GB/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<NameUnit> kPerLayer = {
    {"core.prequant_ns_per_block", "ns"},
    {"core.dequant_ns_per_block", "ns"},
    {"core.lorenzo_fwd_ns_per_block", "ns"},
    {"core.lorenzo_inv_ns_per_block", "ns"},
    {"core.sign_max_len_ns_per_block", "ns"},
    {"core.bitshuffle_ns_per_block", "ns"},
    {"core.bitunshuffle_ns_per_block", "ns"},
    {"core.block_compress_ns_per_block", "ns"},
    {"core.block_decompress_ns_per_block", "ns"},
    {"core.stream_compress_mb_s", "MB/s"},
    {"core.stream_decompress_mb_s", "MB/s"},
    {"core.zero_block_frac", "fraction"},
    {"core.mean_fixed_length", "bits"},
    {"core.bound_violations", "count"},
    {"engine.fixed_cost_us", "us"},
    {"engine.compress_ms_per_call", "ms"},
    {"engine.decompress_ms_per_call", "ms"},
    {"engine.speedup_4v1", "x"},
    {"engine.worker_utilization", "fraction"},
    {"engine.queue_high_water", "count"},
    {"engine.retries", "count"},
    {"io.crc32c_gb_s", "GB/s"},
    {"io.parse_container_us", "us"},
    {"net.ping_rtt_us", "us"},
    {"net.client_overhead_ms", "ms"},
    {"net.queue_wait_ms", "ms"},
    {"net.server_engine_ms", "ms"},
    {"net.network_ms", "ms"},
    {"net.server_span_coverage", "fraction"},
    {"net.busy_frac", "fraction"},
    {"net.pool_hit_rate", "fraction"},
    {"net.inflight_high_water", "count"},
    {"tenant.admit_us", "us"},
    {"tenant.compress_host_ms", "ms"},
    {"tenant.decompress_host_ms", "ms"},
    {"mapping.compress_host_ms", "ms"},
    {"mapping.makespan_cycles", "cycles"},
    {"mapping.padded_block_frac", "fraction"},
    {"wse.events_processed", "count"},
    {"wse.host_ns_per_event", "ns"},
    {"wse.tasks_run", "count"},
    {"bench.host_slowdown", "x"},
    {"bench.compress_p95_ms", "ms"},
    {"bench.decompress_p95_ms", "ms"},
    {"obs.trace_overhead_frac", "fraction"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<codec_bulk|wafer_tenants> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--corrupt-response]\n",
               why);
  return 2;
}

/// The run must report exactly the expected metrics, with their units,
/// as finite numbers; anything else is a benchmark bug.
bool metrics_match(const Outcome& out, const std::vector<NameUnit>& expected) {
  bool ok = out.metrics.size() == expected.size();
  for (const auto& [name, unit] : expected) {
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end() || it->second.unit != unit ||
        !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s missing, non-finite or "
                           "in the wrong unit\n", name);
      ok = false;
    }
  }
  if (out.metrics.size() != expected.size()) {
    std::fprintf(stderr, "perfbench: %zu metrics reported, %zu expected\n",
                 out.metrics.size(), expected.size());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-response") {
      cfg.corrupt_response = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out") {
      cfg.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || cfg.seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  cfg.trace = trace == 1;

  Outcome out;
  try {
    if (cfg.workload == "codec_bulk") {
      out = perfbench::run_codec_bulk(cfg);
    } else if (cfg.workload == "wafer_tenants") {
      out = perfbench::run_wafer_tenants(cfg);
    } else {
      return usage(("unknown workload '" + cfg.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 2;
  }
  if (!metrics_match(out, cfg.trace ? kPerLayer : kEndToEnd)) return 2;
  if (out.attempted == 0) {
    std::fprintf(stderr, "perfbench: no request was attempted\n");
    return 2;
  }
  std::printf("%s\n", perfbench::result_json(out).c_str());
  std::fflush(stdout);
  if (!out.correct) {
    std::fprintf(stderr, "perfbench: output check FAILED\n");
    return 1;
  }
  return 0;
}

// Network machinery: an in-process ServiceServer, closed-loop client
// threads driving it, and the output check every response passes
// through. wafer_tenants runs on it; codec_bulk borrows it for a traced
// service burst.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

/// Compares responses with the input's reference. `corrupt_next` is the
/// test hook of RunConfig::corrupt_response: the next response checked
/// gets one byte flipped first.
struct Checker {
  std::atomic<bool> corrupt_next{false};
  bool compress_ok(const Input& in, std::vector<u8> got);
  bool decompress_ok(const Input& in, std::vector<f32> got);
};

struct ServiceSpec {
  bool tenancy = false;    ///< ServerOptions::tenancy.enabled
  /// One entry per client connection: its tenant id (0 = untenanted)
  /// and CSNP priority.
  std::vector<u32> client_tenants;
  std::vector<u8> client_priorities;
};

struct PhaseStats {
  u64 attempted = 0;
  u64 failed = 0;      ///< errored, refused (BUSY) or wrong bytes
  u64 mismatched = 0;  ///< wrong bytes
  /// Latency runs from the send time; MB/s is uncompressed MB served
  /// per second.
  WindowedTimings latency;
  f64 slowdown = 1.0;         ///< median host_slowdown() of the windows
};

struct ServiceRun {
  bool correct = true;
  f64 setup_s = 0.0;
  PhaseStats phase;         ///< tracing off
  PhaseStats traced_phase;  ///< traced runs only
  Outcome layers;           ///< net.* metrics of the traced phase
};

/// Set up (repeatedly, reporting the median) and run the timed phase;
/// a traced run (non-null `tracing`) adds a traced phase on a traced
/// server and the stitched net.* breakdown.
ServiceRun run_service(const ServiceSpec& spec,
                       const std::vector<Input>& inputs, const RunConfig& cfg,
                       Tracing* tracing);

/// A traced closed-loop burst of one untenanted client over `inputs`,
/// for the net.* metrics of a workload without a server.
void service_layer_burst(const std::vector<Input>& inputs, Tracing& tracing,
                         ServiceRun& run);

/// Write the run's one Chrome trace: the benchmark and client timeline
/// with the program's timeline stitched in beside it.
void write_trace(const std::string& path, Tracing& tracing);

}  // namespace perfbench

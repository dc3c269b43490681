// The benchmark workloads and the helpers they share.
#pragma once

#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"

#include "obs/trace.h"

namespace perfbench {

/// Events kept per recording thread by the program tracer. The tracer
/// allocates a full ring for every thread that ever records, and the
/// service starts new engine threads for every request, so traced
/// memory grows with requests times this capacity.
inline constexpr std::size_t kProgramRingEvents = 1024;

/// Length of a traced phase. It bounds the program tracer's memory (see
/// kProgramRingEvents) to a few hundred MB on wafer_tenants.
inline constexpr f64 kTracedPhaseSeconds = 0.5;

/// The two tracers of a traced run, written as one Chrome trace.
struct Tracing {
  /// The benchmark's own spans and the client spans; long-lived
  /// threads only.
  ceresz::obs::Tracer bench{std::size_t{1} << 16};
  /// Handed to ServerOptions, EngineOptions and MapperOptions::tracer.
  ceresz::obs::Tracer program{kProgramRingEvents};
};

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  /// Traced run: program tracers on, per-layer metrics instead of the
  /// end-to-end ones, one Chrome trace written to `trace_out`.
  bool trace = false;
  std::string trace_out;
  /// Test hook: flip one byte of the first response checked in the
  /// timed phase, to prove the output check catches it.
  bool corrupt_response = false;
};

Outcome run_codec_bulk(const RunConfig& cfg);
Outcome run_wafer_tenants(const RunConfig& cfg);

/// The per-layer probes of layers.cpp: core, engine and io on `inputs`;
/// net, tenant, mapping and wse on `slices` (64 Ki-float requests). The
/// program's tracers stay off while a layer is timed; `tracing.bench`
/// gets one span around every timed call.
void probe_all_layers(const std::vector<Input>& inputs,
                      const std::vector<Input>& slices, Tracing& tracing,
                      Outcome& out);

/// The windowed timing metrics of a timed phase: compress/decompress
/// MB/s and p50 in an untraced run; in a traced run the p95 figures,
/// which are reported but not gated (tail latency on the shared host
/// swings more between runs than any allowed bound).
void record_timings(const WindowedTimings& t, bool trace, Outcome& out);

/// ratio and max_err_over_eps of the reference runs (deterministic).
void record_quality(const std::vector<Input>& inputs, Outcome& out);

/// sim_gbps: uncompressed bytes over simulated seconds when each input
/// is compressed on its tenant's lease of a fresh 12x8 coordinator.
/// Also checks the wafer stream decodes to the reference values.
f64 simulated_gbps(const std::vector<Input>& inputs, bool& correct);

/// The first 64 Ki-float slice of each input, at the input's absolute
/// eps, with its own references: a bounded sample for the network and
/// wafer probes of a workload whose inputs are whole fields.
std::vector<Input> leading_slices(const std::vector<Input>& inputs);

}  // namespace perfbench

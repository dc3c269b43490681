// End-to-end CereSZ on the simulated wafer: profiles the data, schedules
// the pipeline (Algorithm 1), installs the row programs, runs the fabric,
// and reports throughput exactly as the paper measures it (max PE cycle
// counter / 850 MHz, Section 5.1.1). The records that leave the wafer are
// framed as the one-chunk CereSZ container (io/chunk_container.h), so the
// stream is bit-identical to core::StreamCodec's.
//
// Scaling strategy: CereSZ's rows never communicate (the basis of the
// paper's Fig. 7 linear row scaling), which the simulator exploits twice.
// First, exact runs go through wse::WaferSimulator, which partitions the
// mesh into independent row bands and simulates them concurrently on
// `sim_threads` workers (or a borrowed engine::ThreadPool) with a
// deterministic band-order merge — output is bit-identical and every
// virtual-cycle count is stable regardless of thread count, so
// `max_exact_rows` can be raised to near-wafer scale. Second, meshes
// beyond `max_exact_rows` simulate that many representative rows — each
// processing the block share a full mesh would give it — and reuse the
// measured makespan for the full mesh. Results carry an `extrapolated`
// flag; tests/test_wafer_sim.cpp validates the extrapolation against
// multi-hundred-row exact runs within kExtrapolationRelTolerance.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/costmodel.h"
#include "core/stream_codec.h"
#include "mapping/profile.h"
#include "mapping/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wse/config.h"
#include "wse/fabric.h"

namespace ceresz::engine {
class ThreadPool;
}

namespace ceresz::mapping {

/// Canonical mapper metric names (Prometheus families).
inline constexpr const char* kMetricMapperRuns = "ceresz_mapper_runs_total";
inline constexpr const char* kMetricMapperBlocks =
    "ceresz_mapper_blocks_total";
inline constexpr const char* kMetricMapperPaddedBlocks =
    "ceresz_mapper_padded_blocks_total";
inline constexpr const char* kMetricMapperRowsFailed =
    "ceresz_mapper_rows_failed_total";
inline constexpr const char* kMetricMapperPipelinesLost =
    "ceresz_mapper_pipelines_lost_total";
inline constexpr const char* kMetricMapperMakespan =
    "ceresz_mapper_makespan_cycles";
inline constexpr const char* kMetricMapperThroughput =
    "ceresz_mapper_throughput_gbps";

/// Pre-create every mapper metric family in `reg` at zero.
void declare_mapper_metrics(obs::MetricsRegistry& reg);

struct MapperOptions {
  u32 rows = 1;
  u32 cols = 1;
  u32 pipeline_length = 1;
  core::CodecConfig codec{};
  core::PeCostModel cost{};
  /// Timing parameters of the WSE; rows/cols are overwritten per run.
  wse::WseConfig wse{};
  /// Simulate at most this many rows exactly; beyond it, extrapolate.
  u32 max_exact_rows = 4;
  /// Worker threads for the parallel simulator core (row bands run
  /// concurrently; <= 1 simulates serially). Pure host-side parallelism:
  /// the simulated outcome is bit-identical for every value. Ignored
  /// when `sim_pool` is set.
  u32 sim_threads = 1;
  /// Rows per simulated band (0 = one band per row). Like sim_threads,
  /// changing it never changes the simulated outcome.
  u32 sim_rows_per_group = 0;
  /// Borrowed worker pool to run row bands on instead of spawning one
  /// (nullable; must outlive the mapper's runs). Safe to share with the
  /// compression engine — the simulator never blocks on a full queue.
  engine::ThreadPool* sim_pool = nullptr;
  /// Ingress rate: cycles between successive wavelets arriving at each
  /// row's first PE. 1.0 = saturated (Section 4.4, assumption 1).
  f64 ingress_cycles_per_wavelet = 1.0;
  /// When true, ignore `pipeline_length` and plan the pipeline subject to
  /// the PE SRAM budget (Section 4.4, assumption 2): the shortest
  /// cycle-balanced split that fits, or a memory-greedy split if none
  /// does. The resulting length must still fit within `cols`.
  bool plan_for_sram = false;
  /// Hardware faults to survive: the mapper places no work on (or east of)
  /// a dead PE — rows with a dead PE before `pipeline_length` columns are
  /// skipped entirely, pipelines east of a mid-row dead PE are lost, and
  /// the surviving rows absorb the failed rows' block share. The plan is
  /// also installed into the Fabric, so slow-PE/drop/corrupt faults are
  /// modeled during the run. A non-empty plan requires exact simulation
  /// (rows <= max_exact_rows).
  wse::FaultPlan fault_plan{};
  /// Assemble the full output (stream / reconstruction). Requires exact
  /// simulation of all rows; automatically disabled when extrapolating.
  bool collect_output = true;
  f64 sample_fraction = 0.05;
  /// Observability (both nullable, both borrowed — must outlive the
  /// mapper's runs). `tracer` records host-clock planning spans
  /// (profile/schedule/assign/assemble) plus the fabric's virtual-clock
  /// per-PE occupancy timeline; `metrics` accumulates mapper and fabric
  /// totals across runs.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct WaferRunResult {
  Cycles makespan = 0;
  f64 seconds = 0.0;
  f64 throughput_gbps = 0.0;
  u64 total_blocks = 0;   ///< real (un-padded) blocks
  u64 padded_blocks = 0;  ///< zero blocks appended to square off rounds
  bool extrapolated = false;
  u32 rows_simulated = 0;
  u32 pipelines_per_row = 0;  ///< healthy-row pipeline count (nominal)
  // Fault-tolerance surface (nonzero only under a MapperOptions fault
  // plan): the degraded placement actually used.
  bool degraded = false;
  u32 rows_failed = 0;      ///< rows with no usable pipeline (skipped)
  u32 pipelines_lost = 0;   ///< pipelines lost to dead PEs, mesh-wide
  f64 eps_abs = 0.0;
  DataProfile profile;
  PipelinePlan plan;
  wse::RunStats run_stats;
  /// Per-PE stats of row 0 (for the Fig. 10-style profiles).
  std::vector<wse::PeStats> row0_stats;
  /// Compressed stream (compress): the one-chunk container,
  /// byte-identical to StreamCodec's.
  std::vector<u8> stream;
  /// Reconstructed values (decompress).
  std::vector<f32> output;
};

class WaferMapper {
 public:
  explicit WaferMapper(MapperOptions options);

  const MapperOptions& options() const { return options_; }

  /// Compress `data` on the simulated wafer.
  WaferRunResult compress(std::span<const f32> data,
                          core::ErrorBound bound) const;

  /// Decompress a stream on the wafer: a non-empty container of any
  /// chunk count written with this mapper's codec configuration (by
  /// compress(), core::StreamCodec or engine::ParallelEngine). Every
  /// chunk's CRC32C is checked, and its records must fill it exactly.
  WaferRunResult decompress(std::span<const u8> stream) const;

 private:
  MapperOptions options_;
};

}  // namespace ceresz::mapping

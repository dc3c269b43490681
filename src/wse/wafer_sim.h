// Parallel full-wafer simulation: RowSimulator bands + WaferSimulator
// driver.
//
// CereSZ rows never communicate (the basis of the paper's Fig. 7 linear
// row scaling), so a wafer-sized mesh splits into independent row bands
// that can be simulated concurrently. A RowSimulator owns one band: a
// Fabric addressed in GLOBAL wafer rows (per-row PE state, the arena-
// allocated event heap, the coalesced pre-run injection batch). The
// WaferSimulator partitions the mesh into bands, runs them on worker
// threads, and merges PeStats/RunStats/results in fixed band order — so
// the merged output is bit-identical and every virtual-cycle count is
// stable regardless of thread count (or of running serially).
//
// Determinism contract: for a fixed `rows_per_group`, every observable
// of run() — merged ResultRecords, RunStats, per-PE PeStats, metric
// totals, the makespan — is a pure function of the installed programs
// and fault plan. Thread count only changes which host worker executes
// which band. (Trace event *file order* can vary with threading; the
// events themselves, stamped on the virtual clock with global-PE thread
// ids, are the same set.) tests/test_wafer_sim.cpp locks this in.
//
// Thread-pool reuse: the driver can borrow an existing engine::ThreadPool
// (WaferSimOptions::pool) instead of spawning its own. Bands run as an
// engine::TaskGroup, which never blocks on the queue and has the waiting
// thread run queued work itself, so sharing a pool with the compression
// engine (or invoking a simulation from inside a pool task, as the tenant
// coordinator's request paths do) cannot deadlock, even on a 1-worker
// pool. test_wafer_sim regression-tests exactly that.
//
// Fault storms: each band consults the full FaultPlan in global
// coordinates, so a cross-row fault storm is exactly simulable — no
// slicing or re-basing is involved in the simulator path itself
// (FaultPlan::slice_rows exists for the tenant coordinator's
// lease-local plans and is property-tested against this).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "engine/thread_pool.h"
#include "wse/fabric.h"

namespace ceresz::wse {

/// Simulator-driver metric families, accumulated once per run() by the
/// WaferSimulator (band fabrics write no metrics themselves, so totals
/// stay identical across thread counts).
inline constexpr const char* kMetricSimRuns = "ceresz_fabric_sim_runs_total";
inline constexpr const char* kMetricSimRowGroups =
    "ceresz_fabric_sim_row_groups";
inline constexpr const char* kMetricSimThreads = "ceresz_fabric_sim_threads";

/// Pre-create the simulator metric families in `reg` at zero.
void declare_simulator_metrics(obs::MetricsRegistry& reg);

/// One contiguous band of wafer rows, simulated in isolation. Owns the
/// band's Fabric (per-row PE state, event arena, injection batch); all
/// row coordinates are global wafer rows in [row_begin, row_begin +
/// row_count).
class RowSimulator {
 public:
  RowSimulator(const WseConfig& wafer, u32 row_begin, u32 row_count);

  RowSimulator(const RowSimulator&) = delete;
  RowSimulator& operator=(const RowSimulator&) = delete;

  u32 row_begin() const { return row_begin_; }
  u32 row_count() const { return row_count_; }

  /// The band fabric, for program installation (routes, tasks, injections)
  /// before run() and stats queries after.
  Fabric& fabric() { return fabric_; }
  const Fabric& fabric() const { return fabric_; }

  /// Run the band to completion. May be called once; thread-safe with
  /// respect to other bands (they share nothing mutable).
  RunStats run();

  /// The band's RunStats (valid after run()).
  const RunStats& run_stats() const { return run_stats_; }

 private:
  u32 row_begin_ = 0;
  u32 row_count_ = 0;
  Fabric fabric_;
  RunStats run_stats_;
};

struct WaferSimOptions {
  /// Full simulated mesh (rows x cols); bands partition `wse.rows`.
  WseConfig wse{};
  /// Worker threads for band execution. <= 1 runs bands serially on the
  /// calling thread (still through the same band partition, so results
  /// are identical to any threaded run). Ignored when `pool` is set.
  u32 sim_threads = 1;
  /// Rows per band. 0 picks the default of 1 (one RowSimulator per row —
  /// deliberately independent of sim_threads, so the band partition, and
  /// with it the merged result order, never varies with thread count).
  u32 rows_per_group = 0;
  /// Consulted by every band in global coordinates; cross-row fault
  /// storms are exact.
  FaultPlan fault_plan{};
  /// Observability; both borrowed, both nullable, must outlive run().
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Borrowed worker pool to run bands on (e.g. the compression engine's
  /// pool). Null with sim_threads > 1 spawns a private pool for the run.
  engine::ThreadPool* pool = nullptr;
};

class WaferSimulator {
 public:
  explicit WaferSimulator(WaferSimOptions options);

  const WaferSimOptions& options() const { return options_; }

  std::size_t group_count() const { return groups_.size(); }
  RowSimulator& group(std::size_t i) { return *groups_[i]; }

  /// The band fabric owning global `row` — install programs through it
  /// exactly as on a whole-mesh Fabric (build_row_program works
  /// unchanged: row coordinates are global).
  Fabric& fabric_for_row(u32 row);

  /// Run every band to completion and merge. May be called once. Bands
  /// execute concurrently when a pool is available; the merge (stats
  /// sums, result concatenation, metric accumulation) happens in fixed
  /// band order on the calling thread.
  RunStats run();

  /// Merged results: band order (ascending row), emission order within a
  /// band. Valid after run().
  const std::vector<ResultRecord>& results() const { return results_; }

  /// Per-PE statistics by global coordinates (valid after run()).
  const PeStats& stats(u32 row, u32 col) const;

  Cycles makespan() const { return run_stats_.makespan; }
  const RunStats& run_stats() const { return run_stats_; }

 private:
  void run_group_task(std::size_t i);

  WaferSimOptions options_;
  std::vector<std::unique_ptr<RowSimulator>> groups_;
  std::vector<u32> group_of_row_;  ///< global row -> band index
  std::vector<ResultRecord> results_;
  RunStats run_stats_;
  bool ran_ = false;
  /// Trace context captured at run() entry; re-installed around every
  /// band so fabric spans inherit the originating request's trace id.
  obs::TraceContext run_ctx_;

  std::mutex mu_;  // guards first_error_
  std::exception_ptr first_error_;
};

}  // namespace ceresz::wse

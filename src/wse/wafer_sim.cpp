#include "wse/wafer_sim.h"

#include <algorithm>

#include "common/error.h"

namespace ceresz::wse {

void declare_simulator_metrics(obs::MetricsRegistry& reg) {
  reg.counter(kMetricSimRuns);
  reg.gauge(kMetricSimRowGroups);
  reg.gauge(kMetricSimThreads);
}

// ---------------------------------------------------------------------------
// RowSimulator
// ---------------------------------------------------------------------------

namespace {

WseConfig band_config(const WseConfig& wafer, u32 row_count) {
  WseConfig band = wafer;
  band.rows = row_count;
  return band;
}

}  // namespace

RowSimulator::RowSimulator(const WseConfig& wafer, u32 row_begin,
                           u32 row_count)
    : row_begin_(row_begin),
      row_count_(row_count),
      fabric_(band_config(wafer, row_count), row_begin) {}

RunStats RowSimulator::run() {
  run_stats_ = fabric_.run();
  return run_stats_;
}

// ---------------------------------------------------------------------------
// WaferSimulator
// ---------------------------------------------------------------------------

WaferSimulator::WaferSimulator(WaferSimOptions options)
    : options_(std::move(options)) {
  CERESZ_CHECK(options_.wse.rows >= 1 && options_.wse.cols >= 1,
               "WaferSimulator: mesh must be at least 1x1");
  // The band partition must not depend on thread count: a fixed
  // rows_per_group makes the merged output a pure function of the
  // installed programs, whatever parallelism executes it.
  const u32 per_group = std::max<u32>(1, options_.rows_per_group);
  group_of_row_.resize(options_.wse.rows);
  for (u32 begin = 0; begin < options_.wse.rows; begin += per_group) {
    const u32 count = std::min(per_group, options_.wse.rows - begin);
    const u32 index = static_cast<u32>(groups_.size());
    groups_.push_back(
        std::make_unique<RowSimulator>(options_.wse, begin, count));
    Fabric& fabric = groups_.back()->fabric();
    if (!options_.fault_plan.empty()) {
      fabric.set_fault_plan(options_.fault_plan);
    }
    // Bands record traces directly (per-thread rings; thread ids are
    // global PE coordinates) but never metrics — the driver accumulates
    // those once, after the deterministic merge.
    fabric.set_tracer(options_.tracer);
    for (u32 r = begin; r < begin + count; ++r) group_of_row_[r] = index;
  }
}

Fabric& WaferSimulator::fabric_for_row(u32 row) {
  CERESZ_CHECK(row < options_.wse.rows,
               "WaferSimulator: row outside the simulated mesh");
  return groups_[group_of_row_[row]]->fabric();
}

void WaferSimulator::run_group_task(std::size_t i) {
  // Band work inherits the trace context of the request that called
  // run(), whatever thread executes it (pool worker, inline drain, or
  // the caller itself), so fabric spans stay request-attributable.
  const obs::TraceContextScope scope(run_ctx_);
  try {
    groups_[i]->run();
  } catch (...) {
    std::lock_guard lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

RunStats WaferSimulator::run() {
  CERESZ_CHECK(!ran_, "WaferSimulator::run may only be called once");
  ran_ = true;
  run_ctx_ = obs::current_trace_context();

  engine::ThreadPool* pool = options_.pool;
  std::unique_ptr<engine::ThreadPool> owned;
  if (pool == nullptr && options_.sim_threads > 1 && groups_.size() > 1) {
    const u32 threads =
        std::min<u32>(options_.sim_threads,
                      static_cast<u32>(groups_.size()));
    owned = std::make_unique<engine::ThreadPool>(threads);
    pool = owned.get();
  }

  if (pool == nullptr || groups_.size() == 1) {
    for (std::size_t i = 0; i < groups_.size(); ++i) run_group_task(i);
  } else {
    engine::TaskGroup bands(*pool);
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      bands.submit([this, i] { run_group_task(i); });
    }
    bands.wait();
  }
  if (first_error_) std::rethrow_exception(first_error_);

  // Deterministic merge, fixed band order.
  run_stats_ = RunStats{};
  for (const auto& group : groups_) {
    const RunStats& rs = group->run_stats();
    run_stats_.makespan = std::max(run_stats_.makespan, rs.makespan);
    run_stats_.events_processed += rs.events_processed;
    run_stats_.tasks_run += rs.tasks_run;
    run_stats_.messages_dropped += rs.messages_dropped;
    run_stats_.messages_corrupted += rs.messages_corrupted;
    run_stats_.activations_suppressed += rs.activations_suppressed;
    auto band_results = group->fabric().take_results();
    results_.insert(results_.end(),
                    std::make_move_iterator(band_results.begin()),
                    std::make_move_iterator(band_results.end()));
  }

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    u64 sent = 0, received = 0, relayed = 0, busy = 0;
    for (const auto& group : groups_) {
      const u32 begin = group->row_begin();
      for (u32 r = begin; r < begin + group->row_count(); ++r) {
        for (u32 c = 0; c < options_.wse.cols; ++c) {
          const PeStats& ps = group->fabric().stats(r, c);
          sent += ps.messages_sent;
          received += ps.messages_received;
          relayed += ps.messages_relayed;
          busy += ps.busy_cycles;
        }
      }
    }
    reg.counter(kMetricFabricTasks).add(run_stats_.tasks_run);
    reg.counter(kMetricFabricEvents).add(run_stats_.events_processed);
    reg.counter(kMetricFabricSent).add(sent);
    reg.counter(kMetricFabricReceived).add(received);
    reg.counter(kMetricFabricRelayed).add(relayed);
    reg.counter(kMetricFabricDropped).add(run_stats_.messages_dropped);
    reg.counter(kMetricFabricCorrupted).add(run_stats_.messages_corrupted);
    reg.counter(kMetricFabricBusyCycles).add(busy);
    reg.gauge(kMetricFabricMakespan)
        .set(static_cast<f64>(run_stats_.makespan));
    reg.counter(kMetricSimRuns).add(1);
    reg.gauge(kMetricSimRowGroups).set(static_cast<f64>(groups_.size()));
    reg.gauge(kMetricSimThreads)
        .set(static_cast<f64>(pool != nullptr ? std::max<u32>(1, pool->size())
                                              : 1));
  }
  return run_stats_;
}

const PeStats& WaferSimulator::stats(u32 row, u32 col) const {
  CERESZ_CHECK(row < options_.wse.rows,
               "WaferSimulator: row outside the simulated mesh");
  return groups_[group_of_row_[row]]->fabric().stats(row, col);
}

}  // namespace ceresz::wse

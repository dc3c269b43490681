// The perf-regression gate: compare a bench run's history records
// against a committed baseline with noise-aware thresholds.
//
// History format (bench/history/*.jsonl, one record per line):
//   {"bench": "engine_scaling", "metric": "compress_gbps",
//    "value": 12.3, "unit": "GB/s", "better": "higher", "noise": 0.10}
// `noise` is the metric's relative noise band — the deviation a shared
// CI runner can produce without any code change. Simulated metrics
// (makespan cycles, simulated throughput) are deterministic and get
// tight bands; wall-clock metrics get generous ones.
//
// Gate semantics per metric (deviation = relative change in the WORSE
// direction; improvements never trip the gate):
//   deviation <= noise               -> OK
//   deviation <= noise * hard_factor -> WARN (reported, exit 0)
//   deviation  > noise * hard_factor -> FAIL (exit 1)
// so CI can soft-fail inside the band and hard-fail beyond noise x 3.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace ceresz::obs::analysis {

struct HistoryRecord {
  std::string bench;
  std::string metric;
  f64 value = 0.0;
  std::string unit;
  /// "higher" or "lower": which direction is an improvement.
  std::string better = "higher";
  /// Relative noise band, e.g. 0.10 for +-10%.
  f64 noise = 0.10;
  // Provenance metadata (empty = omitted from the JSONL line). Carried
  // for humans diffing history files; the gate never compares it, and
  // the parser treats these — like any other unknown key — as optional,
  // so old and new history files interoperate both ways.
  std::string timestamp;  ///< ISO-8601 UTC, e.g. "2026-02-07T12:00:00Z"
  std::string git_sha;
  std::string host;

  std::string key() const { return bench + "/" + metric; }
  std::string to_jsonl() const;  ///< one line, no trailing newline
};

/// Parse history JSONL. Lines missing "bench"/"metric"/"value" throw;
/// "better" defaults to "higher" and "noise" to 0.10. Unknown keys are
/// ignored, so records from newer writers always parse.
std::vector<HistoryRecord> parse_history_jsonl(std::string_view text);

/// Fill a record's provenance fields from the environment: UTC wall
/// clock, $GITHUB_SHA / $CERESZ_GIT_SHA (first set wins), gethostname.
void stamp_history_metadata(HistoryRecord& record);

/// kMissing: a baseline metric the current run did not produce.
/// kNoBaseline: a current-run metric with no baseline record yet.
enum class GateStatus : u8 { kOk, kWarn, kFail, kMissing, kNoBaseline };

struct GateResult {
  /// The baseline record; for kNoBaseline, the current record (only its
  /// key, unit and direction are meaningful).
  HistoryRecord baseline;
  f64 current = 0.0;
  /// Relative change in the worse direction (negative = improvement).
  f64 deviation = 0.0;
  GateStatus status = GateStatus::kOk;
};

struct GateReport {
  std::vector<GateResult> results;
  u32 warned = 0;
  u32 failed = 0;   ///< nonzero => the gate's process exit is nonzero
  u32 missing = 0;  ///< baseline metrics absent from the current run
  u32 no_baseline = 0;  ///< current-run metrics absent from the baseline
};

/// Evaluate every baseline metric against the current run's records
/// (matched by bench/metric key). A baseline metric the current run did
/// not produce is reported as kMissing, and a current-run metric with
/// no baseline (it becomes one on the next refresh) as kNoBaseline,
/// after the baseline results in key order. Both count as warnings,
/// never as failures.
GateReport evaluate_gate(const std::vector<HistoryRecord>& baseline,
                         const std::vector<HistoryRecord>& current,
                         f64 hard_factor = 3.0);

/// Human-readable gate table plus a PASS/WARN/FAIL summary line.
std::string render_gate(const GateReport& report);

}  // namespace ceresz::obs::analysis

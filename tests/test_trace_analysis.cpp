// Trace-analytics tests: Chrome-trace round trips, span-tree nesting,
// per-PE occupancy attribution (fractions must partition the makespan),
// pipeline bottleneck extraction against the scheduler's ground truth,
// cost-model validation residuals (Formulas 2-4) on a fault-free run,
// relay-span/counter agreement under degraded placement, the P-squared
// streaming quantile digests, and the perf-regression gate semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/costmodel.h"
#include "core/stage.h"
#include "mapping/wafer_mapper.h"
#include "obs/analysis/digest.h"
#include "obs/analysis/model_check.h"
#include "obs/analysis/perfgate.h"
#include "obs/analysis/report.h"
#include "obs/analysis/trace_analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "wse/fabric.h"

namespace ceresz {
namespace {

namespace oa = obs::analysis;

// ---------------------------------------------------------------------------
// Span trees.

oa::Span make_span(const char* name, u64 ts, u64 dur, u32 tid = 1) {
  oa::Span s;
  s.name = name;
  s.cat = "test";
  s.pid = obs::kHostPid;
  s.tid = tid;
  s.ts_ns = ts;
  s.dur_ns = dur;
  return s;
}

TEST(SpanTree, NestsByContainmentAndAccountsSelfTime) {
  const std::vector<oa::Span> spans = {
      make_span("outer", 0, 100),
      make_span("child", 10, 30),
      make_span("grandchild", 15, 5),
      make_span("sibling", 50, 30),
  };
  std::vector<const oa::Span*> ptrs;
  for (const auto& s : spans) ptrs.push_back(&s);

  const std::vector<oa::SpanNode> roots = oa::build_span_tree(ptrs);
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].span->name, "outer");
  // outer loses [10,40) and [50,80) to children: 100 - 30 - 30.
  EXPECT_EQ(roots[0].self_ns, 40u);
  ASSERT_EQ(roots[0].children.size(), 2u);
  EXPECT_EQ(roots[0].children[0].span->name, "child");
  EXPECT_EQ(roots[0].children[0].self_ns, 25u);  // 30 - grandchild's 5
  ASSERT_EQ(roots[0].children[0].children.size(), 1u);
  EXPECT_EQ(roots[0].children[0].children[0].span->name, "grandchild");
  EXPECT_EQ(roots[0].children[0].children[0].self_ns, 5u);
  EXPECT_EQ(roots[0].children[1].span->name, "sibling");
  EXPECT_EQ(roots[0].children[1].self_ns, 30u);
}

TEST(SpanTree, DisjointSpansStaySiblingRoots) {
  const std::vector<oa::Span> spans = {
      make_span("b", 200, 50),
      make_span("a", 0, 100),
  };
  std::vector<const oa::Span*> ptrs = {&spans[0], &spans[1]};
  const auto roots = oa::build_span_tree(ptrs);
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_EQ(roots[0].span->name, "a");  // ordering normalized by ts
  EXPECT_EQ(roots[1].span->name, "b");
}

// ---------------------------------------------------------------------------
// Thread-name parsing (the mapper's stage-attribution channel).

TEST(PeThreadName, ParsesEnrichedName) {
  const auto pe = oa::parse_pe_thread_name(
      "pe[2,7] pipe=3 stage=1 stages=Lorenzo:100.5+Sign:20.0");
  ASSERT_TRUE(pe.has_value());
  EXPECT_EQ(pe->row, 2u);
  EXPECT_EQ(pe->col, 7u);
  EXPECT_EQ(pe->pipe, 3);
  EXPECT_EQ(pe->stage_pos, 1);
  ASSERT_EQ(pe->stages.size(), 2u);
  EXPECT_EQ(pe->stages[0].name, "Lorenzo");
  EXPECT_DOUBLE_EQ(pe->stages[0].cycles, 100.5);
  EXPECT_EQ(pe->stages[1].name, "Sign");
  EXPECT_DOUBLE_EQ(pe->stages[1].cycles, 20.0);
}

TEST(PeThreadName, PlainFabricNameHasNoSchedulePosition) {
  const auto pe = oa::parse_pe_thread_name("pe[0,15]");
  ASSERT_TRUE(pe.has_value());
  EXPECT_EQ(pe->row, 0u);
  EXPECT_EQ(pe->col, 15u);
  EXPECT_EQ(pe->pipe, -1);
  EXPECT_EQ(pe->stage_pos, -1);
  EXPECT_TRUE(pe->stages.empty());
}

TEST(PeThreadName, NonPeNamesAreRejected) {
  EXPECT_FALSE(oa::parse_pe_thread_name("worker-3").has_value());
  EXPECT_FALSE(oa::parse_pe_thread_name("").has_value());
  EXPECT_FALSE(oa::parse_pe_thread_name("pe[").has_value());
}

// ---------------------------------------------------------------------------
// Chrome trace round trip.

TEST(ChromeTrace, RoundTripsSpansNamesAndDrops) {
  obs::Tracer tracer;
  tracer.set_process_name(obs::kFabricPid, "wse-fabric");
  tracer.set_thread_name(obs::kFabricPid, 3, "pe[0,2]");
  obs::TraceEvent ev;
  ev.name = "task";
  ev.cat = "fabric";
  ev.pid = obs::kFabricPid;
  ev.tid = 3;
  ev.ts_ns = 2500;
  ev.dur_ns = 1500;
  ev.arg1_name = "color";
  ev.arg1 = 7;
  tracer.record(ev);
  tracer.instant("tick", "fabric");

  const oa::TraceData trace =
      oa::load_chrome_trace(tracer.chrome_trace_json());
  EXPECT_EQ(trace.dropped_events, 0u);
  ASSERT_EQ(trace.spans.size(), 1u);
  const oa::Span& s = trace.spans[0];
  EXPECT_EQ(s.name, "task");
  EXPECT_EQ(s.cat, "fabric");
  EXPECT_EQ(s.pid, obs::kFabricPid);
  EXPECT_EQ(s.tid, 3u);
  EXPECT_EQ(s.ts_ns, 2500u);
  EXPECT_EQ(s.dur_ns, 1500u);
  EXPECT_EQ(s.arg_or("color", -1), 7);
  EXPECT_EQ(trace.instants.size(), 1u);
  ASSERT_NE(trace.thread_name(obs::kFabricPid, 3), nullptr);
  EXPECT_EQ(*trace.thread_name(obs::kFabricPid, 3), "pe[0,2]");
  EXPECT_EQ(trace.process_names.at(obs::kFabricPid), "wse-fabric");

  // from_tracer is the same parse applied to the live tracer.
  const oa::TraceData live = oa::from_tracer(tracer);
  EXPECT_EQ(live.spans.size(), trace.spans.size());
}

TEST(ChromeTrace, MalformedInputThrows) {
  EXPECT_THROW(oa::load_chrome_trace("not json"), Error);
  EXPECT_THROW(oa::load_chrome_trace("{\"traceEvents\": 5}"), Error);
}

TEST(MetricsJson, SnapshotRoundTripsThroughJson) {
  obs::MetricsRegistry reg;
  reg.counter("c_total").add(17);
  reg.gauge("g_value").set(-3.25);
  obs::Histogram& h = reg.histogram("h_seconds", {1.0, 2.0});
  h.observe(0.5);
  h.observe(99.0);  // overflow bucket

  const obs::MetricsSnapshot back =
      oa::snapshot_from_json(obs::to_json(reg.snapshot()));
  EXPECT_EQ(back.counter_value("c_total"), 17u);
  EXPECT_DOUBLE_EQ(back.gauge_value("g_value"), -3.25);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].count, 2u);
  ASSERT_EQ(back.histograms[0].bounds.size(), 2u);
  ASSERT_EQ(back.histograms[0].counts.size(), 3u);
  EXPECT_EQ(back.histograms[0].counts[0], 1u);
  EXPECT_EQ(back.histograms[0].counts[2], 1u);

  EXPECT_THROW(oa::snapshot_from_json("[]"), Error);
}

// ---------------------------------------------------------------------------
// End-to-end fabric analytics on an instrumented wafer run.

/// The label the mapper publishes for each compression sub-stage family
/// (the public naming contract of the enriched thread names).
const char* expected_label(core::SubStageKind kind) {
  switch (kind) {
    case core::SubStageKind::kPrequantMul: return "Multiplication";
    case core::SubStageKind::kPrequantAdd: return "Addition";
    case core::SubStageKind::kLorenzo: return "Lorenzo";
    case core::SubStageKind::kSign: return "Sign";
    case core::SubStageKind::kMax: return "Max";
    case core::SubStageKind::kGetLength: return "GetLength";
    case core::SubStageKind::kShuffleBit: return "Bitshuffle";
    default: return "?";
  }
}

/// The longest consecutive same-label run inside the plan's bottleneck
/// group — what the report must name as the bottleneck sub-stage.
std::string plan_bottleneck_substage(const mapping::PipelinePlan& plan,
                                     const core::PeCostModel& cost) {
  const auto it = std::max_element(
      plan.groups.begin(), plan.groups.end(),
      [](const auto& a, const auto& b) { return a.cycles < b.cycles; });
  std::string best_label;
  f64 best_cycles = -1.0;
  std::string cur_label;
  f64 cur_cycles = 0.0;
  auto flush = [&] {
    if (!cur_label.empty() && cur_cycles > best_cycles) {
      best_cycles = cur_cycles;
      best_label = cur_label;
    }
  };
  for (const core::SubStage& s : it->stages) {
    const std::string label = expected_label(s.kind);
    if (label != cur_label) {
      flush();
      cur_label = label;
      cur_cycles = 0.0;
    }
    cur_cycles += static_cast<f64>(cost.substage_cycles(s, 32));
  }
  flush();
  return best_label;
}

struct InstrumentedFixture {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  mapping::WaferRunResult result;

  explicit InstrumentedFixture(u32 cols, u32 pl,
                               wse::FaultPlan faults = {}) {
    mapping::MapperOptions opt;
    opt.rows = 1;
    opt.cols = cols;
    opt.pipeline_length = pl;
    opt.max_exact_rows = 1;
    opt.collect_output = false;
    opt.fault_plan = faults;
    opt.tracer = &tracer;
    opt.metrics = &registry;
    const mapping::WaferMapper mapper(opt);
    const auto data = test::smooth_signal(32 * 64);  // 64 blocks
    result = mapper.compress(data, core::ErrorBound::absolute(1e-3));
  }
};

TEST(FabricOccupancy, FractionsPartitionTheMakespan) {
  InstrumentedFixture fx(/*cols=*/8, /*pl=*/2);
  const oa::FabricOccupancy occ =
      oa::fabric_occupancy(oa::from_tracer(fx.tracer));

  EXPECT_EQ(occ.makespan_ns,
            fx.result.makespan * oa::kTraceNsPerCycle);
  ASSERT_EQ(occ.pes.size(), 8u);
  for (std::size_t i = 0; i < occ.pes.size(); ++i) {
    const oa::PeOccupancy& pe = occ.pes[i];
    EXPECT_EQ(pe.pe.row, 0u);
    EXPECT_EQ(pe.pe.col, static_cast<u32>(i));  // (row, col) ordered
    // The four categories partition the PE's occupied time.
    for (f64 f : {pe.compute_frac, pe.relay_frac, pe.recv_frac,
                  pe.send_frac}) {
      EXPECT_GE(f, 0.0);
    }
    const f64 sum =
        pe.compute_frac + pe.relay_frac + pe.recv_frac + pe.send_frac;
    EXPECT_NEAR(pe.busy_frac, sum, 1e-12);
    EXPECT_LE(pe.busy_frac, 1.0 + 1e-12) << "pe[" << pe.pe.row << ","
                                         << pe.pe.col << "]";
    // Mapper-enriched schedule position: col = pipe * PL + stage.
    ASSERT_GE(pe.pe.pipe, 0);
    ASSERT_GE(pe.pe.stage_pos, 0);
    EXPECT_EQ(static_cast<u32>(pe.pe.pipe) * 2 +
                  static_cast<u32>(pe.pe.stage_pos),
              pe.pe.col);
    EXPECT_FALSE(pe.pe.stages.empty());
    EXPECT_GT(pe.compute_tasks, 0u);  // every PE computed blocks
  }
  ASSERT_NE(occ.find(0, 3), nullptr);
  EXPECT_EQ(occ.find(0, 3)->pe.col, 3u);
  EXPECT_EQ(occ.find(5, 0), nullptr);

  // Head 0 ingests one kept block per round: 64 blocks / 4 pipelines.
  EXPECT_EQ(occ.find(0, 0)->recv_ops, 16u);
  // Heads relay traffic for the eastern pipelines; the last head none.
  EXPECT_GT(occ.find(0, 0)->relay_ops, 0u);
}

TEST(PipelineBottlenecks, NamesTheSchedulersLongestSubStage) {
  InstrumentedFixture fx(/*cols=*/8, /*pl=*/2);
  const oa::FabricOccupancy occ =
      oa::fabric_occupancy(oa::from_tracer(fx.tracer));
  const auto bottlenecks = oa::pipeline_bottlenecks(occ);
  ASSERT_EQ(bottlenecks.size(), 4u);  // one per pipeline

  // Ground truth from the scheduler's own plan (for this noisy signal the
  // shuffle planes dominate; for Fig. 10's QMCPack data it would be
  // Multiplication — the report must track the plan either way).
  const std::string expected =
      plan_bottleneck_substage(fx.result.plan, core::PeCostModel{});
  EXPECT_FALSE(expected.empty());
  for (const auto& b : bottlenecks) {
    EXPECT_EQ(b.row, 0u);
    EXPECT_EQ(b.bottleneck_substage, expected);
    EXPECT_EQ(b.col, b.pipe * 2 + b.stage_pos);
    EXPECT_GT(b.compute_frac, 0.0);
    EXPECT_GT(b.cycles_per_block, 0.0);
    EXPECT_GT(b.substage_cycles, 0.0);
    EXPECT_NE(b.stage_group.find(expected), std::string::npos);
  }
}

TEST(ModelValidation, FaultFreeResidualsAreSmall) {
  InstrumentedFixture fx(/*cols=*/8, /*pl=*/2);
  const oa::FabricOccupancy occ =
      oa::fabric_occupancy(oa::from_tracer(fx.tracer));
  const oa::ModelValidation mv =
      oa::validate_model(occ, fx.registry.snapshot());

  ASSERT_TRUE(mv.available) << mv.unavailable_reason;
  EXPECT_EQ(mv.rounds_measured, 16u);
  ASSERT_GE(mv.terms.size(), 3u);
  bool saw_relay = false, saw_compute = false, saw_total = false;
  for (const oa::TermCheck& t : mv.terms) {
    EXPECT_GT(t.predicted, 0.0) << t.name;
    EXPECT_GT(t.measured, 0.0) << t.name;
    if (t.name == "total_cycles") {
      // Formula 4 is a steady-state estimate; pipeline fill/drain makes
      // it a lower bound, so only sanity-bound it here.
      saw_total = true;
      EXPECT_GT(t.residual, -0.05) << "model must not over-predict much";
      EXPECT_LT(t.residual, 1.0);
      continue;
    }
    // Formula 2/3 terms: within 10% on a fault-free run (the paper's
    // model-accuracy claim, Section 4.3).
    EXPECT_LT(std::abs(t.residual), 0.10)
        << t.name << ": predicted " << t.predicted << " measured "
        << t.measured;
    saw_relay = saw_relay || t.name == "relay_per_round";
    saw_compute = saw_compute || t.name == "compute_per_block";
  }
  EXPECT_TRUE(saw_relay);
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_total);
}

TEST(ModelValidation, UnavailableWithoutPredictions) {
  // A trace without the mapper's predicted gauges (raw fabric user).
  InstrumentedFixture fx(/*cols=*/8, /*pl=*/2);
  const oa::FabricOccupancy occ =
      oa::fabric_occupancy(oa::from_tracer(fx.tracer));
  const obs::MetricsRegistry empty;
  const oa::ModelValidation mv = oa::validate_model(occ, empty.snapshot());
  EXPECT_FALSE(mv.available);
  EXPECT_FALSE(mv.unavailable_reason.empty());
}

// Degraded placement: relay spans and fabric counters must agree with
// the simulator's own RunStats when PEs are dead.
TEST(FabricOccupancy, DegradedRelaySpansAgreeWithCounters) {
  wse::FaultPlan faults;
  faults.kill_pe(0, 5);  // cols [0,5) usable -> 2 of 4 pipelines survive
  InstrumentedFixture fx(/*cols=*/8, /*pl=*/2, faults);
  ASSERT_TRUE(fx.result.degraded);
  EXPECT_EQ(fx.result.pipelines_lost, 2u);

  const oa::FabricOccupancy occ =
      oa::fabric_occupancy(oa::from_tracer(fx.tracer));
  // No spans on or east of the dead PE.
  EXPECT_EQ(occ.find(0, 5), nullptr);
  EXPECT_EQ(occ.find(0, 6), nullptr);

  u64 relay_spans = 0, recv_spans = 0;
  for (const oa::PeOccupancy& pe : occ.pes) {
    relay_spans += pe.relay_ops;
    recv_spans += pe.recv_ops;
  }
  EXPECT_GT(relay_spans, 0u);  // head 0 still relays for pipeline 1

  u64 relayed = 0, received = 0;
  for (const wse::PeStats& s : fx.result.row0_stats) {
    relayed += s.messages_relayed;
    received += s.messages_received;
  }
  EXPECT_EQ(relay_spans, relayed);
  EXPECT_EQ(recv_spans, received);

  // The exported fabric counters tell the same story (rows == 1, so the
  // mesh totals equal the row-0 totals).
  const obs::MetricsSnapshot snap = fx.registry.snapshot();
  EXPECT_EQ(snap.counter_value(wse::kMetricFabricRelayed), relayed);
  EXPECT_EQ(snap.counter_value(wse::kMetricFabricReceived), received);
}

// ---------------------------------------------------------------------------
// The assembled report.

TEST(Report, BuildsAndRendersBothFormats) {
  InstrumentedFixture fx(/*cols=*/8, /*pl=*/2);
  const oa::TraceData trace = oa::from_tracer(fx.tracer);
  const oa::Report report =
      oa::build_report(trace, fx.registry.snapshot());

  EXPECT_EQ(report.occupancy.pes.size(), 8u);
  EXPECT_EQ(report.bottlenecks.size(), 4u);
  EXPECT_TRUE(report.model.available);
  EXPECT_EQ(report.trace_dropped, 0u);

  const std::string text = oa::render_text(report);
  EXPECT_NE(text.find("Fabric occupancy"), std::string::npos);
  EXPECT_NE(text.find("Pipeline bottlenecks"), std::string::npos);
  EXPECT_NE(text.find("Formulas 2-4"), std::string::npos);
  EXPECT_NE(text.find("pe[0,0]"), std::string::npos);

  const std::string json = oa::render_json(report);
  EXPECT_NE(json.find("\"makespan_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\""), std::string::npos);
  EXPECT_NE(json.find("\"bottlenecks\""), std::string::npos);
  // The JSON report parses back with the same mini-parser the metrics
  // round trip uses (it is a JSON object of numbers/arrays).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back() == '\n' ? json[json.size() - 2] : json.back(), '}');
}

// ---------------------------------------------------------------------------
// Streaming quantile digests (P-squared).

TEST(QuantileEstimator, ExactForFewObservations) {
  oa::QuantileEstimator q(0.5);
  EXPECT_TRUE(std::isnan(q.estimate()));
  q.observe(5.0);
  EXPECT_DOUBLE_EQ(q.estimate(), 5.0);
  q.observe(1.0);
  q.observe(3.0);
  EXPECT_DOUBLE_EQ(q.estimate(), 3.0);  // exact median of {1,3,5}
  EXPECT_EQ(q.count(), 3u);
}

TEST(QuantileEstimator, RejectsDegenerateProbability) {
  EXPECT_THROW(oa::QuantileEstimator(0.0), Error);
  EXPECT_THROW(oa::QuantileEstimator(1.0), Error);
}

TEST(QuantileEstimator, ConvergesOnUniformStream) {
  // Deterministic LCG; P-squared should land close to the true quantiles
  // of U[0,1) after 10k observations.
  oa::LatencyDigest digest;
  u64 x = 12345;
  for (int i = 0; i < 10000; ++i) {
    x = (6364136223846793005ull * x + 1442695040888963407ull);
    digest.observe(static_cast<f64>(x >> 11) /
                   static_cast<f64>(1ull << 53));
  }
  EXPECT_EQ(digest.count(), 10000u);
  EXPECT_NEAR(digest.p50(), 0.50, 0.03);
  EXPECT_NEAR(digest.p95(), 0.95, 0.02);
  EXPECT_NEAR(digest.p99(), 0.99, 0.01);
  EXPECT_NEAR(digest.mean(), 0.50, 0.02);
  EXPECT_GE(digest.min(), 0.0);
  EXPECT_LT(digest.max(), 1.0);
}

// ---------------------------------------------------------------------------
// Perf-regression gate.

oa::HistoryRecord record(const std::string& metric, f64 value,
                         const std::string& better = "higher",
                         f64 noise = 0.10) {
  oa::HistoryRecord r;
  r.bench = "bench";
  r.metric = metric;
  r.value = value;
  r.unit = "GB/s";
  r.better = better;
  r.noise = noise;
  return r;
}

TEST(PerfGate, HistoryRecordsRoundTripThroughJsonl) {
  const oa::HistoryRecord r = record("compress_gbps", 12.5, "higher", 0.25);
  const auto parsed = oa::parse_history_jsonl(r.to_jsonl() + "\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].bench, "bench");
  EXPECT_EQ(parsed[0].metric, "compress_gbps");
  EXPECT_DOUBLE_EQ(parsed[0].value, 12.5);
  EXPECT_EQ(parsed[0].unit, "GB/s");
  EXPECT_EQ(parsed[0].better, "higher");
  EXPECT_DOUBLE_EQ(parsed[0].noise, 0.25);

  EXPECT_THROW(oa::parse_history_jsonl("{\"bench\": \"b\"}"), Error);
  EXPECT_THROW(
      oa::parse_history_jsonl(
          "{\"bench\": \"b\", \"metric\": \"m\", \"value\": 1, "
          "\"better\": \"sideways\"}"),
      Error);
}

TEST(PerfGate, TwoTimesThroughputRegressionFails) {
  // The acceptance scenario: throughput halves -> 50% deviation, far
  // beyond the 10% band x 3 -> FAIL, and the tool's exit keys on it.
  const std::vector<oa::HistoryRecord> baseline = {
      record("compress_gbps", 10.0)};
  const std::vector<oa::HistoryRecord> current = {
      record("compress_gbps", 5.0)};
  const oa::GateReport report = oa::evaluate_gate(baseline, current);
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status, oa::GateStatus::kFail);
  EXPECT_NEAR(report.results[0].deviation, 0.5, 1e-12);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_NE(oa::render_gate(report).find("RESULT: FAIL"),
            std::string::npos);
}

TEST(PerfGate, NoiseBandAndHardFactorSplitOkWarnFail) {
  const std::vector<oa::HistoryRecord> baseline = {
      record("in_band", 10.0), record("warn_band", 10.0),
      record("hard_fail", 10.0), record("improved", 10.0),
      record("gone", 10.0)};
  const std::vector<oa::HistoryRecord> current = {
      record("in_band", 9.5),    // -5% < 10% noise -> ok
      record("warn_band", 8.0),  // -20%: inside 10% x 3 -> warn
      record("hard_fail", 6.0),  // -40%: beyond 30% -> fail
      record("improved", 20.0),  // improvements never trip the gate
  };
  const oa::GateReport report = oa::evaluate_gate(baseline, current);
  ASSERT_EQ(report.results.size(), 5u);
  std::map<std::string, oa::GateStatus> by_metric;
  for (const auto& r : report.results) {
    by_metric[r.baseline.metric] = r.status;
  }
  EXPECT_EQ(by_metric["in_band"], oa::GateStatus::kOk);
  EXPECT_EQ(by_metric["warn_band"], oa::GateStatus::kWarn);
  EXPECT_EQ(by_metric["hard_fail"], oa::GateStatus::kFail);
  EXPECT_EQ(by_metric["improved"], oa::GateStatus::kOk);
  EXPECT_EQ(by_metric["gone"], oa::GateStatus::kMissing);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.missing, 1u);
}

TEST(PerfGate, CurrentMetricWithoutBaselineIsReportedAsWarning) {
  // A bench that writes a record the baseline does not have yet (a new
  // bench, or one not refreshed) must show up, not vanish.
  const std::vector<oa::HistoryRecord> baseline = {record("kept", 10.0)};
  const std::vector<oa::HistoryRecord> current = {
      record("kept", 10.0), record("new_metric", 3.0),
      record("new_metric", 4.0)};  // last record wins, as for matches
  const oa::GateReport report = oa::evaluate_gate(baseline, current);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].status, oa::GateStatus::kOk);
  const oa::GateResult& added = report.results[1];
  EXPECT_EQ(added.status, oa::GateStatus::kNoBaseline);
  EXPECT_EQ(added.baseline.metric, "new_metric");
  EXPECT_DOUBLE_EQ(added.current, 4.0);
  EXPECT_EQ(report.no_baseline, 1u);
  EXPECT_EQ(report.warned, 1u);
  EXPECT_EQ(report.failed, 0u);
  const std::string table = oa::render_gate(report);
  EXPECT_NE(table.find("NO-BASELINE"), std::string::npos);
  EXPECT_NE(table.find("RESULT: WARN"), std::string::npos);
}

TEST(PerfGate, LowerIsBetterMetricsInvertTheDirection) {
  const std::vector<oa::HistoryRecord> baseline = {
      record("makespan", 1000.0, "lower", 0.01)};
  // 2x slower on a lower-is-better metric: +100% deviation -> fail.
  const auto worse =
      oa::evaluate_gate(baseline, {record("makespan", 2000.0, "lower")});
  EXPECT_EQ(worse.results[0].status, oa::GateStatus::kFail);
  // 2x faster is an improvement -> ok.
  const auto faster =
      oa::evaluate_gate(baseline, {record("makespan", 500.0, "lower")});
  EXPECT_EQ(faster.results[0].status, oa::GateStatus::kOk);
}

}  // namespace
}  // namespace ceresz

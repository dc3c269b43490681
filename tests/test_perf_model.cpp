#include "mapping/perf_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/stage.h"
#include "mapping/wafer_mapper.h"
#include "test_util.h"

namespace ceresz::mapping {
namespace {

PipelinePlan plan_for(u32 fl, u32 pl) {
  GreedyScheduler sched(core::PeCostModel{}, 32);
  return sched.distribute(core::compression_substages(fl), pl);
}

TEST(PerfModel, C1AndC2AreBlockLinear) {
  const PerfModel model(wse::WseConfig{});
  EXPECT_GT(model.relay_c1(64), model.relay_c1(32));
  EXPECT_EQ(model.relay_c1(64) - model.relay_c1(32), 32u);
  EXPECT_EQ(model.forward_c2(64) - model.forward_c2(32), 32u);
}

TEST(PerfModel, ThroughputScalesLinearlyWithRows) {
  const PerfModel model(wse::WseConfig{});
  const PipelinePlan plan = plan_for(12, 1);
  const auto p1 = model.predict(plan, 1, 8, 8000, 32, 128);
  const auto p4 = model.predict(plan, 4, 8, 8000, 32, 128);
  EXPECT_NEAR(p4.throughput_gbps / p1.throughput_gbps, 4.0, 0.05);
}

TEST(PerfModel, ThroughputScalesNearLinearlyWithColumns) {
  // Formula 4: the relay term makes column scaling slightly sub-linear.
  const PerfModel model(wse::WseConfig{});
  const PipelinePlan plan = plan_for(12, 1);
  const auto narrow = model.predict(plan, 1, 8, 65536, 32, 128);
  const auto wide = model.predict(plan, 1, 64, 65536, 32, 128);
  const f64 speedup = wide.throughput_gbps / narrow.throughput_gbps;
  EXPECT_GT(speedup, 5.5);
  EXPECT_LT(speedup, 8.0);
}

TEST(PerfModel, LongerPipelineNeverFaster) {
  // Section 4.4: optimum at pipeline length 1.
  const PerfModel model(wse::WseConfig{});
  f64 prev = 1e30;
  for (u32 pl : {1u, 2u, 4u, 8u}) {
    const PipelinePlan plan = plan_for(17, pl);
    const auto p = model.predict(plan, 1, 16, 65536, 32, 128);
    EXPECT_LE(p.throughput_gbps, prev * 1.01) << "pl=" << pl;
    prev = p.throughput_gbps;
  }
}

TEST(PerfModel, AgreesWithSimulatorPl1) {
  // The analytic model must track the event-driven simulation within ~15%
  // for the PL = 1 mapping it was derived from.
  const auto data = test::smooth_signal(32 * 512, 3);
  MapperOptions opt;
  opt.rows = 1;
  opt.cols = 8;
  opt.collect_output = false;
  const WaferMapper mapper(opt);
  const auto run = mapper.compress(data, core::ErrorBound::absolute(1e-3));

  const PerfModel model(opt.wse);
  const auto pred = model.predict(run.plan, opt.rows, opt.cols,
                                  run.total_blocks, 32, 128);
  const f64 rel_err =
      std::fabs(pred.throughput_gbps - run.throughput_gbps) /
      run.throughput_gbps;
  EXPECT_LT(rel_err, 0.15) << "model " << pred.throughput_gbps << " sim "
                           << run.throughput_gbps;
}

TEST(PerfModel, AgreesWithSimulatorAcrossPipelineLengths) {
  const auto data = test::smooth_signal(32 * 256, 5);
  const PerfModel model(wse::WseConfig{});
  for (u32 pl : {1u, 2u, 4u}) {
    MapperOptions opt;
    opt.rows = 1;
    opt.cols = 8;
    opt.pipeline_length = pl;
    opt.collect_output = false;
    const WaferMapper mapper(opt);
    const auto run = mapper.compress(data, core::ErrorBound::absolute(1e-3));
    const auto pred =
        model.predict(run.plan, 1, 8, run.total_blocks, 32, 128);
    const f64 rel_err =
        std::fabs(pred.throughput_gbps - run.throughput_gbps) /
        run.throughput_gbps;
    EXPECT_LT(rel_err, 0.30) << "pl=" << pl;
  }
}

TEST(PerfModel, DegradedWithNoSurvivorsIsInfeasibleNotAnError) {
  // Every row dead, or every pipeline cut: a typed zero-throughput
  // verdict, not an exception or a division by zero. The tenant
  // coordinator branches on `feasible` during admission and remapping.
  const PerfModel model(wse::WseConfig{});
  const PipelinePlan plan = plan_for(12, 1);
  for (const auto& [rows, pipes] : {std::pair<u32, u32>{0, 8}, {4, 0}, {0, 0}}) {
    const auto p = model.predict_degraded(plan, rows, pipes, 1000, 32, 128);
    EXPECT_FALSE(p.feasible) << rows << "x" << pipes;
    EXPECT_EQ(p.throughput_gbps, 0.0);
    EXPECT_EQ(p.total_cycles, 0u);
    EXPECT_EQ(p.rounds, 0u);
    // The per-block constants are still reported — they describe the
    // plan, not the (empty) placement.
    EXPECT_GT(p.c1, 0u);
    EXPECT_GT(p.c2, 0u);
  }
}

TEST(PerfModel, DegradedSingleSurvivingRowMatchesHealthyOneRowPredict) {
  // The last surviving row must be priced exactly like a healthy 1-row
  // mesh of the same width — degradation only removes capacity, it does
  // not change the per-row round structure.
  const PerfModel model(wse::WseConfig{});
  const PipelinePlan plan = plan_for(12, 1);
  const auto degraded = model.predict_degraded(plan, 1, 8, 4096, 32, 128);
  const auto healthy = model.predict(plan, 1, 8, 4096, 32, 128);
  EXPECT_TRUE(degraded.feasible);
  EXPECT_EQ(degraded.round_cycles, healthy.round_cycles);
  EXPECT_EQ(degraded.rounds, healthy.rounds);
  EXPECT_EQ(degraded.total_cycles, healthy.total_cycles);
  EXPECT_DOUBLE_EQ(degraded.throughput_gbps, healthy.throughput_gbps);
}

TEST(PerfModel, ZeroBlocksYieldsZeroThroughputNotNaN) {
  const PerfModel model(wse::WseConfig{});
  const PipelinePlan plan = plan_for(12, 1);
  const auto p = model.predict(plan, 2, 8, /*blocks_total=*/0, 32, 128);
  EXPECT_TRUE(p.feasible);
  EXPECT_EQ(p.rounds, 0u);
  EXPECT_EQ(p.seconds, 0.0);
  EXPECT_EQ(p.throughput_gbps, 0.0);
  EXPECT_FALSE(std::isnan(p.throughput_gbps));
}

TEST(PerfModel, InvalidGeometryThrows) {
  const PerfModel model(wse::WseConfig{});
  const PipelinePlan plan = plan_for(12, 4);
  EXPECT_THROW(model.predict(plan, 0, 8, 100, 32, 128), Error);
  EXPECT_THROW(model.predict(plan, 1, 2, 100, 32, 128), Error);  // pl > cols
}

}  // namespace
}  // namespace ceresz::mapping

// Direct coverage of the SubStageExecutor — the bridge between the
// scheduled sub-stages and the simulated PEs. Its records must be the host
// BlockCodec's byte-for-byte, and its cycle charges must follow the
// calibrated cost model including the data-dependent skip/tail rules.
#include "mapping/block_work.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/block_codec.h"
#include "test_util.h"

namespace ceresz::mapping {
namespace {

using core::SubStage;
using core::SubStageKind;

SubStageExecutor executor(f64 eps = 1e-3) {
  return SubStageExecutor(core::CodecConfig{}, core::PeCostModel{}, eps);
}

BlockWork compressed_work(const std::vector<f32>& input,
                          const SubStageExecutor& exec, u32 planned_fl = 32) {
  BlockWork work;
  work.input = input;
  for (const auto& stage : core::compression_substages(planned_fl)) {
    exec.apply(work, stage);
  }
  return work;
}

/// Applies the sub-stages up to and including GetLength.
void run_to_length(BlockWork& work, const SubStageExecutor& exec) {
  for (SubStageKind k : {SubStageKind::kPrequantMul, SubStageKind::kPrequantAdd,
                         SubStageKind::kLorenzo, SubStageKind::kSign,
                         SubStageKind::kMax, SubStageKind::kGetLength}) {
    exec.apply(work, {k});
  }
}

TEST(SubStageExecutor, RecordMatchesBlockCodec) {
  const auto exec = executor();
  const auto data = test::smooth_signal(32, 3);
  const BlockWork work = compressed_work(data, exec);

  const core::BlockCodec codec{core::CodecConfig{}};
  std::vector<u8> reference;
  const core::BlockInfo info = codec.compress(data, 1e-3, reference);
  EXPECT_EQ(work.record, reference);
  EXPECT_EQ(work.fl, info.fixed_length);
  EXPECT_FALSE(work.zero);
}

TEST(SubStageExecutor, CycleChargesMatchCostModel) {
  const auto exec = executor();
  const core::PeCostModel cost;
  BlockWork work;
  work.input = test::smooth_signal(32, 5);
  EXPECT_EQ(exec.apply(work, {SubStageKind::kPrequantMul}),
            cost.substage_cycles({SubStageKind::kPrequantMul}, 32));
  EXPECT_EQ(exec.apply(work, {SubStageKind::kPrequantAdd}),
            cost.substage_cycles({SubStageKind::kPrequantAdd}, 32));
  EXPECT_EQ(exec.apply(work, {SubStageKind::kLorenzo}),
            cost.substage_cycles({SubStageKind::kLorenzo}, 32));
}

TEST(SubStageExecutor, PlanesBeyondActualLengthAreSkippedCheaply) {
  const auto exec = executor(1e-1);  // loose bound -> small fl
  BlockWork work;
  work.input = test::smooth_signal(32, 7);
  run_to_length(work, exec);
  ASSERT_LT(work.fl, 30u);
  const Cycles skip = exec.apply(work, {SubStageKind::kShuffleBit, 31});
  EXPECT_EQ(skip, SubStageExecutor::kSkipCycles);
}

TEST(SubStageExecutor, TailStageChargesAllRemainingPlanes) {
  const auto exec = executor(1e-4);
  BlockWork work;
  work.input = test::random_signal(32, 9, -10.0, 10.0);
  run_to_length(work, exec);
  ASSERT_GT(work.fl, 2u);
  const core::PeCostModel cost;
  // A tail stage planned at bit 0 must shuffle every plane of the block.
  const Cycles charged =
      exec.apply(work, {SubStageKind::kShuffleBit, 0, /*tail=*/true});
  EXPECT_EQ(charged,
            cost.substage_cycles({SubStageKind::kShuffleBit}, 32) * work.fl);
}

TEST(SubStageExecutor, ZeroBlockShortcutsEncoding) {
  const auto exec = executor(1e-1);
  BlockWork work;
  work.input.assign(32, 0.01f);  // quantizes to zero at eps 0.1
  for (SubStageKind k : {SubStageKind::kPrequantMul, SubStageKind::kPrequantAdd,
                         SubStageKind::kLorenzo, SubStageKind::kSign,
                         SubStageKind::kMax}) {
    exec.apply(work, {k});
  }
  const core::PeCostModel cost;
  EXPECT_EQ(exec.apply(work, {SubStageKind::kGetLength}),
            cost.zero_block_tail);
  EXPECT_TRUE(work.zero);
  EXPECT_EQ(exec.apply(work, {SubStageKind::kShuffleBit, 0, true}),
            SubStageExecutor::kSkipCycles);
  EXPECT_EQ(work.record.size(), 4u);  // bare header
}

TEST(SubStageExecutor, ZeroRecordDecompressesAtTheSkipCharges) {
  const auto exec = executor();
  BlockWork work;
  work.record.assign(4, 0);  // fl = 0
  const core::PeCostModel cost;
  EXPECT_EQ(exec.apply(work, {SubStageKind::kUnshuffleBit, 0, true}),
            SubStageExecutor::kSkipCycles);
  EXPECT_TRUE(work.zero);
  EXPECT_EQ(exec.apply(work, {SubStageKind::kPrefixSum}),
            SubStageExecutor::kSkipCycles);
  EXPECT_EQ(exec.apply(work, {SubStageKind::kDequantMul}),
            cost.zero_block_tail);
  EXPECT_EQ(work.output, std::vector<f32>(32, 0.0f));
}

TEST(SubStageExecutor, DecompressionRecoversBlock) {
  const auto exec = executor();
  const auto data = test::smooth_signal(32, 11);
  const BlockWork comp = compressed_work(data, exec);

  BlockWork decomp;
  decomp.record = comp.record;
  for (const auto& stage : core::decompression_substages(32)) {
    exec.apply(decomp, stage);
  }
  ASSERT_EQ(decomp.output.size(), 32u);
  EXPECT_EQ(decomp.fl, comp.fl);
  EXPECT_LE(test::max_err(data, decomp.output), 1e-3);
}

TEST(SubStageExecutor, TruncatedRecordThrows) {
  const auto exec = executor();
  BlockWork work;
  work.record = {5, 0, 0, 0, 1};  // claims fl = 5 but has 1 payload byte
  EXPECT_THROW(exec.apply(work, {SubStageKind::kUnshuffleBit, 0, true}),
               Error);
}

TEST(SubStageExecutor, RejectsNonPositiveEps) {
  EXPECT_THROW(SubStageExecutor(core::CodecConfig{}, core::PeCostModel{}, 0.0),
               Error);
}

TEST(SubStageExecutor, RejectsConstantBlockExtension) {
  core::CodecConfig codec;
  codec.constant_block_shortcut = true;
  EXPECT_THROW(SubStageExecutor(codec, core::PeCostModel{}, 1e-3), Error);
}

class ExecutorCodecEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorCodecEquivalence, AcrossDataShapes) {
  std::vector<f32> data;
  switch (GetParam()) {
    case 0: data = test::smooth_signal(32, 13); break;
    case 1: data = test::random_signal(32, 17, -500.0, 500.0); break;
    case 2: data.assign(32, 0.0f); break;
    default: data = test::sparse_signal(32, 19, 0.3); break;
  }
  for (f64 eps : {1e-1, 1e-3, 1e-5}) {
    const SubStageExecutor exec(core::CodecConfig{}, core::PeCostModel{},
                                eps);
    const BlockWork work = compressed_work(data, exec);
    const core::BlockCodec codec{core::CodecConfig{}};
    std::vector<u8> reference;
    codec.compress(data, eps, reference);
    EXPECT_EQ(work.record, reference) << "eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ExecutorCodecEquivalence,
                         ::testing::Range(0, 4));

class ExecutorCodecConfigs
    : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

TEST_P(ExecutorCodecConfigs, RecordAndValuesMatchBlockCodec) {
  const auto [block_size, header_bytes] = GetParam();
  core::CodecConfig codec;
  codec.block_size = block_size;
  codec.header_bytes = header_bytes;
  const f64 eps = 1e-3;
  const SubStageExecutor exec(codec, core::PeCostModel{}, eps);
  const core::BlockCodec reference(codec);

  const auto data = test::random_signal(block_size, block_size + header_bytes,
                                        -5.0, 5.0);
  BlockWork comp;
  comp.input = data;
  for (const auto& stage : core::compression_substages(8)) {
    exec.apply(comp, stage);
  }
  std::vector<u8> record;
  reference.compress(data, eps, record);
  EXPECT_EQ(comp.record, record)
      << "L=" << block_size << " hb=" << header_bytes;

  BlockWork decomp;
  decomp.record = record;
  for (const auto& stage : core::decompression_substages(8)) {
    exec.apply(decomp, stage);
  }
  std::vector<f32> values(block_size);
  reference.decompress(record, eps, values);
  EXPECT_EQ(decomp.output, values)
      << "L=" << block_size << " hb=" << header_bytes;
}

INSTANTIATE_TEST_SUITE_P(Configs, ExecutorCodecConfigs,
                         ::testing::Combine(::testing::Values(16u, 32u, 64u),
                                            ::testing::Values(1u, 2u, 4u)));

}  // namespace
}  // namespace ceresz::mapping

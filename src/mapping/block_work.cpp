#include "mapping/block_work.h"

#include "common/error.h"

namespace ceresz::mapping {

namespace {

/// Cycles of a (un)shuffle stage: `full` per plane it covers.
Cycles plane_cycles(const BlockWork& work, const core::SubStage& stage,
                    Cycles full) {
  if (work.zero || stage.bit_index >= work.fl) {
    return SubStageExecutor::kSkipCycles;
  }
  // A tail stage covers every remaining plane: the plan was built from
  // the sampled fixed-length estimate, and blocks whose true length
  // exceeds it overflow onto the last (un)shuffle PE.
  const u32 last_bit = stage.tail ? work.fl : stage.bit_index + 1;
  return full * (last_bit - stage.bit_index);
}

}  // namespace

SubStageExecutor::SubStageExecutor(core::CodecConfig codec,
                                   core::PeCostModel cost, f64 eps)
    : codec_(codec), cost_(cost), eps_(eps) {
  CERESZ_CHECK(!codec.constant_block_shortcut,
               "SubStageExecutor: the constant-block extension is "
               "host-codec only");
  CERESZ_CHECK(eps_ > 0.0, "SubStageExecutor: eps must be positive");
}

void SubStageExecutor::encode(BlockWork& work) const {
  if (!work.record.empty()) return;
  const core::BlockInfo info = codec_.compress(work.input, eps_, work.record);
  work.fl = info.fixed_length;
  work.zero = info.zero_block;
}

void SubStageExecutor::decode(BlockWork& work) const {
  if (!work.output.empty()) return;
  work.fl = codec_.read_header(work.record);
  work.zero = work.fl == 0;
  work.output.resize(codec_.config().block_size);
  codec_.decompress(work.record, eps_, work.output);
}

Cycles SubStageExecutor::apply(BlockWork& work,
                               const core::SubStage& stage) const {
  using core::SubStageKind;
  const Cycles full = cost_.substage_cycles(stage, codec_.config().block_size);

  switch (stage.kind) {
    case SubStageKind::kPrequantMul:
    case SubStageKind::kPrequantAdd:
    case SubStageKind::kLorenzo:
    case SubStageKind::kSign:
    case SubStageKind::kMax:
      encode(work);
      return full;

    case SubStageKind::kGetLength:
      encode(work);
      return work.zero ? cost_.zero_block_tail : full;

    case SubStageKind::kShuffleBit:
      encode(work);
      return plane_cycles(work, stage, full);

    case SubStageKind::kUnshuffleBit:
      decode(work);
      return plane_cycles(work, stage, full);

    case SubStageKind::kPrefixSum:
      decode(work);
      return work.zero ? kSkipCycles : full;

    case SubStageKind::kDequantMul:
      decode(work);
      return work.zero ? cost_.zero_block_tail : full;
  }
  CERESZ_FAIL("apply: unknown sub-stage kind");
}

}  // namespace ceresz::mapping

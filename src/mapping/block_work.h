// The in-flight state of one block as it moves through a compression or
// decompression pipeline, plus the sub-stage executor that each PE's stage
// group applies to it.
//
// The executor is a cycle model around core::BlockCodec. A block is
// encoded (or decoded) whole by BlockCodec on entry to its first
// sub-stage, so the record the last pipeline PE emits is the host codec's
// by construction; every sub-stage then charges the cycles the PE would
// spend on it, from the calibrated PeCostModel and the block's fixed
// length and zero flag. On hardware each PE holds only the buffers its own
// sub-stages need; here one BlockWork travels with the block (attached to
// the fabric message).
#pragma once

#include <vector>

#include "common/types.h"
#include "core/block_codec.h"
#include "core/config.h"
#include "core/costmodel.h"
#include "core/stage.h"

namespace ceresz::mapping {

struct BlockWork {
  std::vector<f32> input;   ///< compression: the raw block
  std::vector<u8> record;   ///< the compressed record (compression output,
                            ///< decompression input)
  std::vector<f32> output;  ///< decompression: the reconstructed floats
  u32 fl = 0;               ///< fixed length (0 for a zero block)
  bool zero = false;        ///< zero block: a bare header
};

/// Applies sub-stages to a BlockWork and reports the cycles they cost.
/// The charges are data-dependent: stages past a zero block's GetLength,
/// or shuffle planes beyond the block's true fixed length, are skipped at
/// a nominal dispatch cost.
class SubStageExecutor {
 public:
  /// Throws if `codec` enables the constant-block extension, which the
  /// wafer mapping does not model.
  SubStageExecutor(core::CodecConfig codec, core::PeCostModel cost, f64 eps);

  /// Apply one sub-stage; returns the cycles consumed. The first
  /// compression sub-stage fills work.record from work.input, the first
  /// decompression sub-stage fills work.output from work.record; both set
  /// fl and zero. Throws on a corrupt or truncated record.
  Cycles apply(BlockWork& work, const core::SubStage& stage) const;

  /// Cycles a sub-stage costs when skipped (zero block / absent plane).
  static constexpr Cycles kSkipCycles = 20;

  f64 eps() const { return eps_; }
  const core::CodecConfig& codec() const { return codec_.config(); }

 private:
  void encode(BlockWork& work) const;
  void decode(BlockWork& work) const;

  core::BlockCodec codec_;
  core::PeCostModel cost_;
  f64 eps_;
};

}  // namespace ceresz::mapping

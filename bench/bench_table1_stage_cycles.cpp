// Table 1: execution cycles of the three compression steps for one data
// block (maximum across all blocks), on CESM-ATM, HACC, and QMCPack.
//
// Regenerated by running every block of the synthetic datasets through the
// sub-stage executor and recording the per-stage cycles the PE charges
// (cost model calibrated to the paper's own profiling; the data-dependent
// part — the encoding length driving Fixed-Length Encoding — is measured
// from the actual blocks).
#include "bench_util.h"
#include "mapping/block_work.h"

using namespace ceresz;

namespace {

struct StageMax {
  Cycles prequant = 0;
  Cycles lorenzo = 0;
  Cycles flenc = 0;
  u32 max_fl = 0;
};

StageMax profile_dataset(data::DatasetId id, f64 rel) {
  const core::CodecConfig codec;
  const core::PeCostModel cost;
  StageMax sm;
  for (u32 fi = 0; fi < data::dataset_spec(id).fields_generated; ++fi) {
    const data::Field field =
        data::generate_field(id, fi, 42, bench::bench_scale(0.35));
    const f64 eps = core::ErrorBound::relative(rel).resolve(
        core::value_bounds(field.view()).range());
    const mapping::SubStageExecutor exec(codec, cost, eps);
    const u64 blocks = field.size() / 32;
    for (u64 b = 0; b < blocks; ++b) {
      mapping::BlockWork work;
      work.input.assign(field.values.begin() + b * 32,
                        field.values.begin() + (b + 1) * 32);
      Cycles prequant = 0, lorenzo = 0, flenc = 0;
      for (const auto& stage : core::compression_substages(32)) {
        const Cycles c = exec.apply(work, stage);
        switch (stage.kind) {
          case core::SubStageKind::kPrequantMul:
          case core::SubStageKind::kPrequantAdd:
            prequant += c;
            break;
          case core::SubStageKind::kLorenzo:
            lorenzo += c;
            break;
          default:
            flenc += c;
            break;
        }
      }
      sm.prequant = std::max(sm.prequant, prequant);
      sm.lorenzo = std::max(sm.lorenzo, lorenzo);
      sm.flenc = std::max(sm.flenc, flenc);
      if (!work.zero) sm.max_fl = std::max(sm.max_fl, work.fl);
    }
  }
  return sm;
}

}  // namespace

int main() {
  std::printf("=== Table 1: execution cycles for the three steps "
              "(max across blocks, block size 32) ===\n");
  std::printf("paper: CESM-ATM 6051/975/37124, HACC 6101/975/29181, "
              "QMCPack 6111/975/27188 (encoding lengths 17/13/12)\n\n");

  TextTable table({"Dataset", "Pre-Quant.", "Loren. Pred.", "FL Encd.",
                   "enc. length"});
  const data::DatasetId ids[] = {data::DatasetId::kCesmAtm,
                                 data::DatasetId::kHacc,
                                 data::DatasetId::kQmcpack};
  // The paper's profiling corresponds to a tight bound (long encoding
  // lengths); REL 1e-4 is the closest configuration.
  for (data::DatasetId id : ids) {
    const StageMax sm = profile_dataset(id, 1e-4);
    table.add_row({data::dataset_spec(id).name, std::to_string(sm.prequant),
                   std::to_string(sm.lorenzo), std::to_string(sm.flenc),
                   std::to_string(sm.max_fl)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: Lorenzo far cheaper than quantization "
              "(subtract vs divide); encoding dominates and scales with "
              "the encoding length.\n");
  return 0;
}

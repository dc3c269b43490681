// Table 2: breakdown of Pre-Quantization into its Multiplication and
// Addition sub-stages (cycles per block, max across blocks).
#include "bench_util.h"
#include "mapping/block_work.h"

using namespace ceresz;

int main() {
  std::printf("=== Table 2: breakdown cycles for Pre-Quantization ===\n");
  std::printf("paper: CESM-ATM 6051 = 5078 + 1033; HACC 6101 = 5081 + 1038; "
              "QMCPack 6111 = 5063 + 1049\n\n");

  const core::CodecConfig codec;
  const core::PeCostModel cost;
  TextTable table({"Dataset", "Pre-Quant.", "Multiplication", "Addition",
                   "mul share"});
  const data::DatasetId ids[] = {data::DatasetId::kCesmAtm,
                                 data::DatasetId::kHacc,
                                 data::DatasetId::kQmcpack};
  for (data::DatasetId id : ids) {
    const data::Field field =
        data::generate_field(id, 0, 42, bench::bench_scale(0.35));
    const f64 eps = core::ErrorBound::relative(1e-4).resolve(
        core::value_bounds(field.view()).range());
    const mapping::SubStageExecutor exec(codec, cost, eps);
    Cycles mul_max = 0, add_max = 0;
    const u64 blocks = field.size() / 32;
    for (u64 b = 0; b < blocks; ++b) {
      mapping::BlockWork work;
      work.input.assign(field.values.begin() + b * 32,
                        field.values.begin() + (b + 1) * 32);
      const Cycles mul =
          exec.apply(work, {core::SubStageKind::kPrequantMul});
      const Cycles add =
          exec.apply(work, {core::SubStageKind::kPrequantAdd});
      mul_max = std::max(mul_max, mul);
      add_max = std::max(add_max, add);
    }
    table.add_row({data::dataset_spec(id).name,
                   std::to_string(mul_max + add_max),
                   std::to_string(mul_max), std::to_string(add_max),
                   fmt_f64(100.0 * mul_max / (mul_max + add_max), 1) + "%"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: the two sub-stages are data-independent "
              "(identical across datasets); multiplication takes ~80%% of "
              "quantization time, making it the longest indivisible "
              "sub-stage (it bounds the feasible pipeline length).\n");
  return 0;
}

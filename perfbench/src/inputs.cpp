#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "data/generators.h"
#include "engine/parallel_engine.h"
#include "net/protocol.h"

namespace perfbench {

namespace data = ceresz::data;
namespace engine = ceresz::engine;
using ceresz::core::ErrorBound;

namespace {

Input whole_field(data::DatasetId id, u32 field, u64 seed, f64 rel) {
  data::Field f = data::generate_field(id, field, seed);
  Input in;
  in.label = f.dataset + "/" + f.name;
  in.values = std::move(f.values);
  in.bound = ErrorBound::relative(rel);
  return in;
}

Input slice_of(const data::Field& f, std::size_t index, f64 rel,
               u32 tenant) {
  const std::size_t off = index * kSliceElems;
  Input in;
  in.label = f.dataset + "/" + f.name + "@" + std::to_string(off);
  in.values.assign(f.values.begin() + static_cast<std::ptrdiff_t>(off),
                   f.values.begin() +
                       static_cast<std::ptrdiff_t>(off + kSliceElems));
  in.bound = ErrorBound::relative(rel);
  in.tenant = tenant;
  return in;
}

/// One 64 Ki-float slice of every field of `id`, `at` of the way into
/// the field. The offsets are fixed, not drawn from the seed: latency
/// p95 follows the costliest slices, and seed-drawn offsets made it vary
/// more between seeds than the host did.
void one_slice_per_field(std::vector<Input>& out, data::DatasetId id,
                         u64 seed, f64 at, f64 rel, u32 tenant) {
  for (const data::Field& f : data::generate_dataset(id, seed)) {
    const std::size_t slots = f.size() / kSliceElems;
    out.push_back(slice_of(f, static_cast<std::size_t>(at * slots), rel,
                           tenant));
  }
}

}  // namespace

std::vector<Input> codec_bulk_inputs(u64 seed) {
  std::vector<Input> out;
  for (data::DatasetId id : {data::DatasetId::kHacc, data::DatasetId::kNyx}) {
    const u32 fields = data::dataset_spec(id).fields_generated;
    for (u32 i = 0; i < fields; ++i) out.push_back(whole_field(id, i, seed, 1e-4));
  }
  return out;
}

const std::vector<TenantPlan>& wafer_tenant_plan() {
  static const std::vector<TenantPlan> plan = {
      {1, ceresz::net::kPriorityInteractive, 1e-2},
      {2, ceresz::net::kPriorityStandard, 5e-3},
      {3, ceresz::net::kPriorityBatch, 3.3e-3},
  };
  return plan;
}

std::vector<Input> wafer_tenant_inputs(u64 seed) {
  std::vector<Input> out;
  const auto& plan = wafer_tenant_plan();
  for (std::size_t k = 0; k < plan.size(); ++k) {
    // Tenants take slices a quarter, half and three quarters in.
    const f64 at = static_cast<f64>(k + 1) / static_cast<f64>(plan.size() + 1);
    one_slice_per_field(out, data::DatasetId::kHurricane, seed, at,
                        plan[k].rel_bound, plan[k].id);
    one_slice_per_field(out, data::DatasetId::kQmcpack, seed, at,
                        plan[k].rel_bound, plan[k].id);
  }
  return out;
}

void reconstruction_error(const std::vector<f32>& original,
                          const std::vector<f32>& decoded, f64 eps,
                          f64& max_err_over_eps, u64& violations) {
  max_err_over_eps = 0.0;
  violations = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const f64 err = std::fabs(static_cast<f64>(original[i]) -
                              static_cast<f64>(decoded[i]));
    max_err_over_eps = std::max(max_err_over_eps, err / eps);
    if (err > eps) ++violations;
  }
}

void compute_references(std::vector<Input>& inputs) {
  engine::EngineOptions opt;
  opt.threads = 1;
  const engine::ParallelEngine eng(opt);
  for (Input& in : inputs) {
    engine::EngineResult r = eng.compress(in.values, in.bound);
    in.eps_abs = r.eps_abs;
    in.stats = r.stats.stream;
    in.stream = std::move(r.stream);
    in.decoded = eng.decompress(in.stream).values;
    reconstruction_error(in.values, in.decoded, in.eps_abs,
                         in.max_err_over_eps, in.bound_violations);
  }
}

f64 reference_ratio(const std::vector<Input>& inputs) {
  f64 raw = 0.0;
  f64 packed = 0.0;
  for (const Input& in : inputs) {
    raw += static_cast<f64>(in.bytes());
    packed += static_cast<f64>(in.stream.size());
  }
  return packed > 0.0 ? raw / packed : 0.0;
}

}  // namespace perfbench

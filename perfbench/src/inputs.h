// Workload inputs, generated from the run's seed with
// data::generate_field, plus the reference results every output of the
// run is checked against.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/stream_codec.h"

namespace perfbench {

using ceresz::f32;
using ceresz::f64;
using ceresz::u32;
using ceresz::u64;
using ceresz::u8;

/// Elements per service request slice (64 Ki floats = 256 KiB).
inline constexpr std::size_t kSliceElems = std::size_t{64} * 1024;

struct Input {
  std::string label;  ///< "<dataset>/<field>[@<slice offset>]"
  std::vector<f32> values;
  ceresz::core::ErrorBound bound;
  u32 tenant = 0;  ///< owning tenant (wafer_tenants), 0 = untenanted

  // Reference results of a single-threaded local ParallelEngine run.
  // Engine output does not depend on the thread count, so every engine
  // or service output of the run must match these bytes exactly.
  std::vector<u8> stream;
  std::vector<f32> decoded;
  f64 eps_abs = 0.0;
  ceresz::core::StreamStats stats;

  // Achieved quality of the reference reconstruction.
  f64 max_err_over_eps = 0.0;
  u64 bound_violations = 0;  ///< elements with |x - x'| > eps

  std::size_t bytes() const { return values.size() * sizeof(f32); }
};

/// Every HACC field and every NYX field, whole, at REL 1e-4.
std::vector<Input> codec_bulk_inputs(u64 seed);

/// Tenant id and REL bound of each wafer_tenants tenant, in admission
/// order (interactive, standard, batch).
struct TenantPlan {
  u32 id;
  u8 priority;  ///< CSNP priority byte (net::kPriority*)
  f64 rel_bound;
};
const std::vector<TenantPlan>& wafer_tenant_plan();

/// Per tenant, one slice of each Hurricane and each QMCPack field (8),
/// at the tenant's bound.
std::vector<Input> wafer_tenant_inputs(u64 seed);

/// Fill the reference fields of every input.
void compute_references(std::vector<Input>& inputs);

/// Total uncompressed bytes / total reference stream bytes.
f64 reference_ratio(const std::vector<Input>& inputs);

/// Element-wise reconstruction error of `decoded` against `original`:
/// the largest |x - x'| / eps and the count of elements beyond eps.
void reconstruction_error(const std::vector<f32>& original,
                          const std::vector<f32>& decoded, f64 eps,
                          f64& max_err_over_eps, u64& violations);

}  // namespace perfbench

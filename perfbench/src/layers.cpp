// Per-layer probes, and the end-to-end helpers that share their inputs
// and coordinator set-up (timings, quality, sim_gbps). Each probe times
// public functions of a single layer from outside, on the workload's own
// inputs, and wraps every timed call (or timed loop of calls) in a
// benchmark span.

#include <algorithm>
#include <cstring>
#include <exception>
#include <thread>

#include "common/checksum.h"
#include "common/timer.h"
#include "core/block_codec.h"
#include "core/flenc.h"
#include "core/lorenzo.h"
#include "core/prequant.h"
#include "core/stream_codec.h"
#include "engine/parallel_engine.h"
#include "io/chunk_container.h"
#include "mapping/wafer_mapper.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "tenant/coordinator.h"
#include "workloads.h"

namespace perfbench {

namespace core = ceresz::core;
namespace engine = ceresz::engine;
namespace mapping = ceresz::mapping;
namespace net = ceresz::net;
namespace obs = ceresz::obs;
namespace tenant = ceresz::tenant;
using ceresz::i32;
using ceresz::now_ns;

namespace {

/// Blocks sampled per core probe (512 Ki floats, 2 MiB: one core's L2).
constexpr std::size_t kCoreBlocks = 16 * 1024;
/// Repetitions of each timed loop; the median is reported.
constexpr int kReps = 5;

/// Median wall time in seconds of `reps` runs of `fn`, each in a span.
template <class Fn>
f64 timed(obs::Tracer* tracer, const char* span, int reps, Fn&& fn) {
  std::vector<f64> s;
  for (int r = 0; r < reps; ++r) {
    const obs::SpanGuard guard(tracer, span, "bench");
    const u64 t0 = now_ns();
    fn();
    s.push_back(static_cast<f64>(now_ns() - t0) * 1e-9);
  }
  return median(s);
}

bool same_values(const std::vector<f32>& a, const std::vector<f32>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0;
}

/// Tenant of an input on a coordinator: untenanted inputs belong to one
/// standard-priority tenant 1.
u32 tenant_of(const Input& in) { return in.tenant != 0 ? in.tenant : 1; }

/// One TenantSpec per distinct tenant, in first-appearance order, with
/// the bound of the tenant's first input.
std::vector<tenant::TenantSpec> tenant_specs(const std::vector<Input>& inputs) {
  std::vector<tenant::TenantSpec> specs;
  for (const Input& in : inputs) {
    const u32 id = tenant_of(in);
    const bool seen = std::any_of(specs.begin(), specs.end(),
                                  [&](const auto& s) { return s.id == id; });
    if (seen) continue;
    tenant::TenantSpec spec;
    spec.id = id;
    spec.bound = in.bound;
    for (const TenantPlan& t : wafer_tenant_plan()) {
      if (t.id == id && in.tenant != 0) {
        spec.priority = static_cast<tenant::Priority>(t.priority);
      }
    }
    specs.push_back(spec);
  }
  return specs;
}

/// A fresh default 12x8 coordinator with every tenant admitted in order.
/// Returns null when an admission fails.
std::unique_ptr<tenant::WaferCoordinator> admitted_coordinator(
    const std::vector<tenant::TenantSpec>& specs, std::vector<f64>* admit_us) {
  auto coord = std::make_unique<tenant::WaferCoordinator>(
      tenant::CoordinatorOptions{});
  for (const auto& spec : specs) {
    const u64 t0 = now_ns();
    const tenant::AdmissionResult r = coord->admit(spec);
    if (admit_us != nullptr) {
      admit_us->push_back(static_cast<f64>(now_ns() - t0) * 1e-3);
    }
    if (r.verdict != tenant::AdmissionVerdict::kAdmitted) return nullptr;
  }
  return coord;
}

}  // namespace

void record_timings(const WindowedTimings& t, bool trace, Outcome& out) {
  if (trace) {
    out.set("bench.compress_p95_ms", t.compress_p95_ms, "ms");
    out.set("bench.decompress_p95_ms", t.decompress_p95_ms, "ms");
    return;
  }
  out.set("compress_mb_s", t.compress_mb_s, "MB/s");
  out.set("decompress_mb_s", t.decompress_mb_s, "MB/s");
  out.set("compress_p50_ms", t.compress_p50_ms, "ms");
  out.set("decompress_p50_ms", t.decompress_p50_ms, "ms");
}

void record_quality(const std::vector<Input>& inputs, Outcome& out) {
  f64 worst = 0.0;
  for (const Input& in : inputs) worst = std::max(worst, in.max_err_over_eps);
  out.set("ratio", reference_ratio(inputs), "x");
  out.set("max_err_over_eps", worst, "x");
}

std::vector<Input> leading_slices(const std::vector<Input>& inputs) {
  std::vector<Input> slices;
  for (const Input& in : inputs) {
    Input s;
    s.label = in.label + "@0";
    const std::size_t n = std::min(in.values.size(), kSliceElems);
    s.values.assign(in.values.begin(),
                    in.values.begin() + static_cast<std::ptrdiff_t>(n));
    s.bound = in.bound;
    s.tenant = in.tenant;
    slices.push_back(std::move(s));
  }
  compute_references(slices);
  return slices;
}

f64 simulated_gbps(const std::vector<Input>& inputs, bool& correct) {
  const auto coord = admitted_coordinator(tenant_specs(inputs), nullptr);
  if (coord == nullptr) {
    correct = false;
    return 0.0;
  }
  const core::StreamCodec host;
  f64 bytes = 0.0;
  f64 seconds = 0.0;
  for (const Input& in : inputs) {
    const mapping::WaferRunResult r = coord->compress(tenant_of(in), in.values);
    bytes += static_cast<f64>(in.bytes());
    seconds += r.seconds;
    correct &= same_values(host.decompress(r.stream), in.decoded);
  }
  return seconds > 0.0 ? bytes / seconds / 1e9 : 0.0;
}

namespace {

// Each probe times public functions of one layer from outside, on the
// workload's own inputs, and records that layer's metrics into `out`.

void probe_core(const std::vector<Input>& inputs, obs::Tracer* tracer,
                Outcome& out) {
  const core::CodecConfig cfg;
  const std::size_t L = cfg.block_size;
  const std::size_t plane = L / 8;

  // Evenly strided sample of the workload's blocks, each with its eps.
  std::vector<f32> x;
  std::vector<f64> eps;
  const std::size_t per_input = kCoreBlocks / inputs.size();
  for (const Input& in : inputs) {
    const std::size_t blocks = in.values.size() / L;
    const std::size_t take = std::min(per_input, blocks);
    const std::size_t stride = blocks / take;
    for (std::size_t j = 0; j < take; ++j) {
      const f32* b = in.values.data() + j * stride * L;
      x.insert(x.end(), b, b + L);
      eps.push_back(in.eps_abs);
    }
  }
  const std::size_t nb = eps.size();
  const f64 nbf = static_cast<f64>(nb);
  std::vector<i32> quant(nb * L), resid(nb * L), back(nb * L);
  std::vector<u32> abs(nb * L), abs_back(nb * L);
  std::vector<u8> signs(nb * plane), planes(nb * L * 4);
  std::vector<u32> fl(nb);
  std::vector<f32> y(nb * L);
  auto blk = [L](auto& v, std::size_t b) {
    return std::span(v.data() + b * L, L);
  };
  auto planes_of = [&](std::size_t b) {
    return std::span(planes.data() + b * L * 4, fl[b] * plane);
  };

  const auto ns_per_block = [&](const char* span, auto&& body) {
    return timed(tracer, span, kReps, [&] {
             for (std::size_t b = 0; b < nb; ++b) body(b);
           }) * 1e9 / nbf;
  };
  out.set("core.prequant_ns_per_block",
          ns_per_block("bench.core.prequant", [&](std::size_t b) {
            core::prequant(blk(x, b), blk(quant, b), 2.0 * eps[b]);
          }), "ns");
  out.set("core.lorenzo_fwd_ns_per_block",
          ns_per_block("bench.core.lorenzo_fwd", [&](std::size_t b) {
            core::lorenzo_forward(blk(quant, b), blk(resid, b));
          }), "ns");
  out.set("core.sign_max_len_ns_per_block",
          ns_per_block("bench.core.sign_max_len", [&](std::size_t b) {
            core::split_sign(blk(resid, b), blk(abs, b),
                             std::span(signs.data() + b * plane, plane));
            fl[b] = core::effective_bits(core::block_max(blk(abs, b)));
          }), "ns");
  out.set("core.bitshuffle_ns_per_block",
          ns_per_block("bench.core.bitshuffle", [&](std::size_t b) {
            core::bit_shuffle(blk(abs, b), fl[b], planes_of(b));
          }), "ns");
  out.set("core.bitunshuffle_ns_per_block",
          ns_per_block("bench.core.bitunshuffle", [&](std::size_t b) {
            core::bit_unshuffle(planes_of(b), fl[b], blk(abs_back, b));
          }), "ns");
  out.set("core.lorenzo_inv_ns_per_block",
          ns_per_block("bench.core.lorenzo_inv", [&](std::size_t b) {
            core::lorenzo_inverse(blk(resid, b), blk(back, b));
          }), "ns");
  out.set("core.dequant_ns_per_block",
          ns_per_block("bench.core.dequant", [&](std::size_t b) {
            core::dequant(blk(back, b), blk(y, b), 2.0 * eps[b]);
          }), "ns");

  const core::BlockCodec codec(cfg);
  std::vector<u8> records;
  records.reserve(nb * codec.max_compressed_size());
  out.set("core.block_compress_ns_per_block",
          ns_per_block("bench.core.block_compress", [&](std::size_t b) {
            if (b == 0) records.clear();
            codec.compress(blk(x, b), eps[b], records);
          }), "ns");
  std::size_t at = 0;
  out.set("core.block_decompress_ns_per_block",
          ns_per_block("bench.core.block_decompress", [&](std::size_t b) {
            if (b == 0) at = 0;
            at += codec.decompress(std::span(records).subspan(at), eps[b],
                                   blk(y, b));
          }), "ns");

  // Whole-input StreamCodec runs at each input's resolved eps; the
  // decoded values must equal the engine reference.
  const core::StreamCodec stream(cfg);
  f64 bytes = 0.0;
  f64 c_s = 0.0;
  f64 d_s = 0.0;
  for (const Input& in : inputs) {
    const core::ErrorBound abs_bound = core::ErrorBound::absolute(in.eps_abs);
    core::CompressionResult r;
    c_s += timed(tracer, "bench.core.stream_compress", 3,
                 [&] { r = stream.compress(in.values, abs_bound); });
    std::vector<f32> back_values;
    d_s += timed(tracer, "bench.core.stream_decompress", 3,
                 [&] { back_values = stream.decompress(r.stream); });
    out.correct &= same_values(back_values, in.decoded);
    bytes += static_cast<f64>(in.bytes());
  }
  out.set("core.stream_compress_mb_s", bytes / 1e6 / c_s, "MB/s");
  out.set("core.stream_decompress_mb_s", bytes / 1e6 / d_s, "MB/s");

  // Counts that explain the kernel cost, from the reference runs.
  u64 blocks = 0;
  u64 zero = 0;
  u64 violations = 0;
  f64 fl_sum = 0.0;
  f64 fl_blocks = 0.0;
  for (const Input& in : inputs) {
    blocks += in.stats.total_blocks;
    zero += in.stats.zero_blocks;
    violations += in.bound_violations;
    for (std::size_t f = 1; f < in.stats.fl_histogram.size(); ++f) {
      fl_sum += static_cast<f64>(f * in.stats.fl_histogram[f]);
      fl_blocks += static_cast<f64>(in.stats.fl_histogram[f]);
    }
  }
  out.set("core.zero_block_frac",
          blocks > 0 ? static_cast<f64>(zero) / static_cast<f64>(blocks) : 0.0,
          "fraction");
  out.set("core.mean_fixed_length", fl_blocks > 0 ? fl_sum / fl_blocks : 0.0,
          "bits");
  out.set("core.bound_violations", static_cast<f64>(violations), "count");
}

void probe_engine(const std::vector<Input>& inputs, obs::Tracer* tracer,
                  Outcome& out) {
  const engine::EngineOptions opt;
  const engine::ParallelEngine eng(opt);
  std::vector<f64> c_ms;
  std::vector<f64> d_ms;
  f64 util = 0.0;
  u64 high_water = 0;
  u64 retries = 0;
  for (const Input& in : inputs) {
    engine::EngineResult r;
    c_ms.push_back(timed(tracer, "bench.engine.compress", 3, [&] {
                     r = eng.compress(in.values, in.bound);
                   }) * 1e3);
    engine::DecompressResult d;
    d_ms.push_back(timed(tracer, "bench.engine.decompress", 3, [&] {
                     d = eng.decompress(r.stream);
                   }) * 1e3);
    out.correct &= r.stream == in.stream && same_values(d.values, in.decoded);
    util += r.stats.worker_utilization();
    high_water = std::max(high_water, r.stats.queue_high_water);
    retries += r.stats.retries + d.stats.retries;
  }
  out.set("engine.compress_ms_per_call", median(c_ms), "ms");
  out.set("engine.decompress_ms_per_call", median(d_ms), "ms");
  out.set("engine.worker_utilization", util / static_cast<f64>(inputs.size()),
          "fraction");
  out.set("engine.queue_high_water", static_cast<f64>(high_water), "count");
  out.set("engine.retries", static_cast<f64>(retries), "count");

  // 4 workers against 1, compress and decompress of every input.
  const auto run_all = [&](u32 threads, const char* span) {
    engine::EngineOptions o;
    o.threads = threads;
    const engine::ParallelEngine e(o);
    return timed(tracer, span, 3, [&] {
      for (const Input& in : inputs) {
        e.decompress(e.compress(in.values, in.bound).stream);
      }
    });
  };
  out.set("engine.speedup_4v1",
          run_all(1, "bench.engine.threads1") /
              run_all(4, "bench.engine.threads4"),
          "x");

  // Fixed cost of one call: the engine on one 64 Ki-float chunk minus a
  // bare BlockCodec loop over the same blocks.
  const Input& first = inputs.front();
  const std::span<const f32> chunk(
      first.values.data(), std::min(first.values.size(), kSliceElems));
  const core::ErrorBound abs_bound = core::ErrorBound::absolute(first.eps_abs);
  const f64 engine_s = timed(tracer, "bench.engine.one_chunk", 21, [&] {
    eng.compress(chunk, abs_bound);
  });
  const core::BlockCodec codec(opt.codec);
  std::vector<u8> records;
  records.reserve(chunk.size() / opt.codec.block_size *
                  codec.max_compressed_size());
  const f64 loop_s = timed(tracer, "bench.engine.block_loop", 21, [&] {
    records.clear();
    for (std::size_t i = 0; i + opt.codec.block_size <= chunk.size();
         i += opt.codec.block_size) {
      codec.compress(chunk.subspan(i, opt.codec.block_size), first.eps_abs,
                     records);
    }
  });
  out.set("engine.fixed_cost_us", (engine_s - loop_s) * 1e6, "us");
}

void probe_io(const std::vector<Input>& inputs, obs::Tracer* tracer,
              Outcome& out) {
  f64 bytes = 0.0;
  for (const Input& in : inputs) bytes += static_cast<f64>(in.stream.size());
  // Enough passes over the reference streams for ~64 MB per timing.
  const int passes = std::max(1, static_cast<int>(64e6 / bytes));
  const auto crc_all = [&] {
    u32 acc = 0;
    for (const Input& in : inputs) acc = acc * 31 + ceresz::crc32c(in.stream);
    return acc;
  };
  const u32 expected = crc_all();
  const f64 crc_s = timed(tracer, "bench.io.crc32c", kReps, [&] {
    for (int p = 0; p < passes; ++p) out.correct &= crc_all() == expected;
  });
  out.set("io.crc32c_gb_s", bytes * passes / crc_s / 1e9, "GB/s");

  std::vector<f64> parse_us;
  for (const Input& in : inputs) {
    parse_us.push_back(timed(tracer, "bench.io.parse_container", 21, [&] {
                         const auto parsed = ceresz::io::parse_container(in.stream);
                         out.correct &= parsed.header.element_count ==
                                        in.values.size();
                       }) * 1e6);
  }
  out.set("io.parse_container_us", median(parse_us), "us");
}

void probe_net_unloaded(const std::vector<Input>& inputs, obs::Tracer* tracer,
                        Outcome& out) {
  net::ServiceServer server{net::ServerOptions{}};
  server.start();
  net::CereszClient client(net::RetryPolicy{}, nullptr, tracer);
  client.connect("127.0.0.1", server.port());
  std::vector<f64> rtt_us;
  for (int i = 0; i < 200; ++i) {
    const obs::SpanGuard span(tracer, "bench.net.ping", "bench");
    rtt_us.push_back(client.ping() * 1e6);
  }
  out.set("net.ping_rtt_us", median(rtt_us), "us");

  // Client latency minus a local engine run (the server's engine
  // configuration) on the same payload.
  const engine::ParallelEngine eng{engine::EngineOptions{}};
  std::vector<f64> overhead_ms;
  for (const Input& in : inputs) {
    std::vector<u8> got;
    const f64 remote = timed(tracer, "bench.net.compress", kReps, [&] {
      got = client.compress(in.values, in.bound);
    });
    out.correct &= got == in.stream;
    const f64 local = timed(tracer, "bench.net.local_engine", kReps, [&] {
      eng.compress(in.values, in.bound);
    });
    overhead_ms.push_back((remote - local) * 1e3);
  }
  out.set("net.client_overhead_ms", median(overhead_ms), "ms");
  client.close();
  server.stop();
}

void probe_wafer(const std::vector<Input>& inputs, obs::Tracer* tracer,
                 obs::Tracer* program_tracer, Outcome& out) {
  const std::vector<tenant::TenantSpec> specs = tenant_specs(inputs);
  std::vector<f64> admit_us;
  std::unique_ptr<tenant::WaferCoordinator> coord;
  for (int r = 0; r < 20; ++r) {
    const obs::SpanGuard span(tracer, "bench.tenant.admit_all", "bench");
    coord = admitted_coordinator(specs, &admit_us);
    if (coord == nullptr) {
      out.correct = false;
      return;
    }
  }
  out.set("tenant.admit_us", median(admit_us), "us");

  std::vector<f64> c_ms;
  std::vector<f64> d_ms;
  std::vector<f64> m_ms;
  f64 makespan = 0.0;
  f64 events = 0.0;
  f64 tasks = 0.0;
  f64 padded = 0.0;
  f64 blocks = 0.0;
  f64 mapper_ns = 0.0;
  std::vector<u8> first_stream;
  for (const Input& in : inputs) {
    const u32 id = tenant_of(in);
    mapping::WaferRunResult c;
    c_ms.push_back(timed(tracer, "bench.tenant.compress", 1, [&] {
                     c = coord->compress(id, in.values);
                   }) * 1e3);
    mapping::WaferRunResult d;
    d_ms.push_back(timed(tracer, "bench.tenant.decompress", 1, [&] {
                     d = coord->decompress(id, c.stream);
                   }) * 1e3);
    out.correct &= same_values(d.output, in.decoded);
    if (first_stream.empty()) first_stream = c.stream;

    // The same job straight on a WaferMapper with the lease geometry.
    const tenant::Lease lease = *coord->lease_of(id);
    mapping::MapperOptions mopt;
    mopt.rows = lease.row_count;
    mopt.cols = lease.cols;
    mopt.pipeline_length = lease.spec.pipeline_length;
    mopt.codec = lease.spec.codec;
    mopt.max_exact_rows = lease.row_count;
    const mapping::WaferMapper mapper(mopt);
    mapping::WaferRunResult m;
    const f64 m_s = timed(tracer, "bench.mapping.compress", 1, [&] {
      m = mapper.compress(in.values, lease.spec.bound);
    });
    out.correct &= m.stream == c.stream;
    m_ms.push_back(m_s * 1e3);
    mapper_ns += m_s * 1e9;
    makespan += static_cast<f64>(m.makespan);
    events += static_cast<f64>(m.run_stats.events_processed);
    tasks += static_cast<f64>(m.run_stats.tasks_run);
    padded += static_cast<f64>(m.padded_blocks);
    blocks += static_cast<f64>(m.total_blocks + m.padded_blocks);
  }
  const f64 n = static_cast<f64>(inputs.size());
  out.set("tenant.compress_host_ms", median(c_ms), "ms");
  out.set("tenant.decompress_host_ms", median(d_ms), "ms");
  out.set("mapping.compress_host_ms", median(m_ms), "ms");
  out.set("mapping.makespan_cycles", makespan / n, "cycles");
  out.set("mapping.padded_block_frac", blocks > 0 ? padded / blocks : 0.0,
          "fraction");
  out.set("wse.events_processed", events / n, "count");
  out.set("wse.tasks_run", tasks / n, "count");
  out.set("wse.host_ns_per_event", events > 0 ? mapper_ns / events : 0.0, "ns");

  // One mapper run with the program tracer on, for the trace file: host
  // planning spans plus the fabric's per-PE cycle timeline. It records on
  // its own thread, so its many fabric events fill that thread's ring
  // instead of evicting the main thread's engine spans.
  if (program_tracer == nullptr) return;
  const Input& first = inputs.front();
  const tenant::Lease lease = *coord->lease_of(tenant_of(first));
  mapping::MapperOptions mopt;
  mopt.rows = lease.row_count;
  mopt.cols = lease.cols;
  mopt.pipeline_length = lease.spec.pipeline_length;
  mopt.codec = lease.spec.codec;
  mopt.max_exact_rows = lease.row_count;
  mopt.tracer = program_tracer;
  const obs::SpanGuard span(tracer, "bench.mapping.traced_compress", "bench");
  std::vector<u8> traced_stream;
  std::thread traced([&] {
    try {
      traced_stream = mapping::WaferMapper(mopt)
                          .compress(first.values, lease.spec.bound)
                          .stream;
    } catch (const std::exception&) {
      traced_stream.clear();  // reported as a mismatch below
    }
  });
  traced.join();
  out.correct &= traced_stream == first_stream;
}

}  // namespace

void probe_all_layers(const std::vector<Input>& inputs,
                      const std::vector<Input>& slices, Tracing& tracing,
                      Outcome& out) {
  probe_core(inputs, &tracing.bench, out);
  probe_engine(inputs, &tracing.bench, out);
  probe_io(inputs, &tracing.bench, out);
  probe_net_unloaded(slices, &tracing.bench, out);
  probe_wafer(slices, &tracing.bench, &tracing.program, out);
}

}  // namespace perfbench

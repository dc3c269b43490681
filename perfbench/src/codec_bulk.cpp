// codec_bulk: ParallelEngine::compress then decompress, default
// EngineOptions, over every HACC and NYX field at REL 1e-4; no network.
// A pass is one round trip of every field, and every pass's output must
// match the single-threaded reference bytes.

#include <memory>

#include "common/error.h"
#include "common/timer.h"
#include "engine/parallel_engine.h"
#include "obs/trace.h"
#include "service.h"
#include "workloads.h"

namespace perfbench {

namespace engine = ceresz::engine;
namespace obs = ceresz::obs;
using ceresz::now_ns;

namespace {

constexpr u32 kSetupRepeats = 5;

/// One pass: a compress/decompress round trip of every input. Its
/// Window's MB/s time base is the summed call time.
struct Pass {
  Window window;
  u64 attempted = 0;
  u64 failed = 0;
};

Pass run_pass(const engine::ParallelEngine& eng,
              const std::vector<Input>& inputs, Checker& check,
              obs::Tracer* tracer) {
  Pass p;
  Window& w = p.window;
  for (const Input& in : inputs) {
    p.attempted += 2;
    try {
      engine::EngineResult r;
      u64 t0 = now_ns();
      {
        const obs::SpanGuard span(tracer, "bench.compress", "bench");
        r = eng.compress(in.values, in.bound);
      }
      const f64 c_s = static_cast<f64>(now_ns() - t0) * 1e-9;
      if (!check.compress_ok(in, r.stream)) ++p.failed;
      engine::DecompressResult d;
      t0 = now_ns();
      {
        const obs::SpanGuard span(tracer, "bench.decompress", "bench");
        d = eng.decompress(r.stream);
      }
      const f64 d_s = static_cast<f64>(now_ns() - t0) * 1e-9;
      if (!check.decompress_ok(in, std::move(d.values))) ++p.failed;
      w.add(true, c_s * 1e3, static_cast<f64>(in.bytes()));
      w.add(false, d_s * 1e3, static_cast<f64>(in.bytes()));
      w.compress_s += c_s;
      w.decompress_s += d_s;
    } catch (const ceresz::Error&) {
      p.failed += 2;
    }
  }
  return p;
}

struct Phase {
  std::vector<Window> windows;  ///< one per pass
  f64 pass_s = 0.0;             ///< median pass time at quiet-host speed
  f64 slowdown = 1.0;           ///< median host_slowdown() of the passes
  u64 attempted = 0;
  u64 failed = 0;
};

/// Passes until `seconds` have elapsed (at least one), with the host's
/// speed calibrated between passes.
Phase run_phase(const engine::ParallelEngine& eng,
                const std::vector<Input>& inputs, f64 seconds, Checker& check,
                obs::Tracer* tracer) {
  Phase ph;
  std::vector<f64> pass_s;
  std::vector<f64> slowdowns;
  const u64 end = now_ns() + static_cast<u64>(seconds * 1e9);
  f64 slowdown_before = host_slowdown();
  do {
    Pass p = run_pass(eng, inputs, check, tracer);
    const f64 slowdown_after = host_slowdown();
    p.window.slowdown = 0.5 * (slowdown_before + slowdown_after);
    slowdown_before = slowdown_after;
    pass_s.push_back((p.window.compress_s + p.window.decompress_s) /
                     p.window.slowdown);
    slowdowns.push_back(p.window.slowdown);
    ph.attempted += p.attempted;
    ph.failed += p.failed;
    ph.windows.push_back(std::move(p.window));
  } while (now_ns() < end);
  ph.pass_s = median(pass_s);
  ph.slowdown = median(slowdowns);
  return ph;
}

}  // namespace

Outcome run_codec_bulk(const RunConfig& cfg) {
  std::vector<Input> inputs = codec_bulk_inputs(cfg.seed);
  compute_references(inputs);
  Outcome out;

  // Set-up, repeated: engine construction plus one warm-up pass.
  std::vector<f64> setups;
  std::unique_ptr<engine::ParallelEngine> eng;
  Checker warm_check;
  f64 slowdown_before = host_slowdown();
  for (u32 r = 0; r < kSetupRepeats; ++r) {
    const u64 t0 = now_ns();
    eng = std::make_unique<engine::ParallelEngine>(engine::EngineOptions{});
    out.correct &= run_pass(*eng, inputs, warm_check, nullptr).failed == 0;
    const f64 raw_s = static_cast<f64>(now_ns() - t0) * 1e-9;
    const f64 slowdown_after = host_slowdown();
    setups.push_back(raw_s / (0.5 * (slowdown_before + slowdown_after)));
    slowdown_before = slowdown_after;
  }

  Checker check;
  check.corrupt_next = cfg.corrupt_response;
  const f64 seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const Phase ph = run_phase(*eng, inputs, seconds, check, nullptr);
  out.attempted = ph.attempted;
  out.failed = ph.failed;
  out.correct &= ph.failed == 0;

  if (!cfg.trace) {
    out.set("setup_s", median(setups), "s");
    record_timings(window_medians(ph.windows), false, out);
    record_quality(inputs, out);
    out.set("success_frac",
            1.0 - static_cast<f64>(ph.failed) / static_cast<f64>(ph.attempted),
            "fraction");
    out.set("sim_gbps", simulated_gbps(leading_slices(inputs), out.correct),
            "GB/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Traced run: a traced service burst of the leading 64 Ki-float
  // slice of each field (codec_bulk has no server of its own to give the
  // net.* metrics), the same passes with the engine's tracer on, then
  // every layer probe.
  Tracing tracing;
  const std::vector<Input> slices = leading_slices(inputs);
  ServiceRun burst;
  service_layer_burst(slices, tracing, burst);
  out.correct &= burst.correct;
  out.metrics = burst.layers.metrics;

  engine::EngineOptions topt;
  topt.tracer = &tracing.program;
  const engine::ParallelEngine traced_eng(topt);
  const Phase tph =
      run_phase(traced_eng, inputs, kTracedPhaseSeconds, check, &tracing.bench);
  out.attempted += tph.attempted;
  out.failed += tph.failed;
  out.correct &= tph.failed == 0;
  out.set("bench.host_slowdown", ph.slowdown, "x");
  record_timings(window_medians(ph.windows), true, out);
  out.set("obs.trace_overhead_frac", tph.pass_s / ph.pass_s - 1.0, "fraction");
  probe_all_layers(inputs, slices, tracing, out);
  write_trace(cfg.trace_out, tracing);
  return out;
}

}  // namespace perfbench

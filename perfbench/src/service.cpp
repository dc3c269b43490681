// wafer_tenants: closed-loop CSNP traffic from in-process client
// threads to a tenancy-enabled ServiceServer hosted in this process.
// Each tenant's client sends its next request as soon as the previous
// one completes.
//
// Every response is checked against the single-threaded local engine
// reference of the same input: compressed bytes must be identical and
// decompressed values bit-identical.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/timer.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/analysis/stitch.h"
#include "obs/analysis/trace_analysis.h"
#include "obs/trace.h"
#include "service.h"
#include "workloads.h"

namespace perfbench {

namespace net = ceresz::net;
namespace obs = ceresz::obs;
using ceresz::now_ns;
using ceresz::u16;

namespace {

constexpr u32 kSetupRepeats = 9;
constexpr f64 kWindowSeconds = 1.0;

/// Clients retry BUSY refusals, as the client library's RetryPolicy
/// intends, so a refusal costs latency (and shows in net.busy_frac)
/// rather than failing the request. The server can refuse even when no
/// more requests are outstanding than its in-flight limit, because a
/// request's slot is released only after its response is written.
net::RetryPolicy client_policy() {
  net::RetryPolicy p;
  p.max_attempts = 8;
  p.retry_budget = u64{1} << 32;
  return p;
}

f64 ms_since(u64 start_ns, u64 end_ns) {
  return end_ns > start_ns ? static_cast<f64>(end_ns - start_ns) * 1e-6 : 0.0;
}

}  // namespace

/// One in-process server plus its connected clients.
struct ServiceRig {
  std::unique_ptr<net::ServiceServer> server;
  std::vector<std::unique_ptr<net::CereszClient>> clients;

  void stop() {
    for (auto& c : clients) c->close();
    clients.clear();
    if (server) server->stop();
  }
};

bool Checker::compress_ok(const Input& in, std::vector<u8> got) {
  if (corrupt_next.exchange(false) && !got.empty()) got[got.size() / 2] ^= 0x5a;
  return got == in.stream;
}

bool Checker::decompress_ok(const Input& in, std::vector<f32> got) {
  if (corrupt_next.exchange(false) && !got.empty()) {
    u8 b[sizeof(f32)];
    std::memcpy(b, &got[got.size() / 2], sizeof b);
    b[0] ^= 0x5a;
    std::memcpy(&got[got.size() / 2], b, sizeof b);
  }
  return got.size() == in.decoded.size() &&
         std::memcmp(got.data(), in.decoded.data(),
                     got.size() * sizeof(f32)) == 0;
}

namespace {

/// Send one request and check its response.
enum class Result { kOk, kError, kMismatch };

Result issue(net::CereszClient& client, const Input& in, bool compress,
             Checker& check, obs::Tracer* tracer) {
  try {
    const obs::SpanGuard span(tracer, compress ? "bench.compress"
                                               : "bench.decompress",
                              "bench", "tenant_id", in.tenant);
    if (compress) {
      return check.compress_ok(in, client.compress(in.values, in.bound))
                 ? Result::kOk
                 : Result::kMismatch;
    }
    return check.decompress_ok(in, client.decompress(in.stream))
               ? Result::kOk
               : Result::kMismatch;
  } catch (const ceresz::Error& e) {
    // Every attempt failed; the client reconnects by itself if needed.
    std::fprintf(stderr, "perfbench: %s %s: %s\n",
                 compress ? "compress" : "decompress", in.label.c_str(),
                 e.what());
    return Result::kError;
  }
}

/// Start a server and connect one client per `spec.client_tenants`
/// entry (tenant 0 = untenanted). Tenanted clients are admitted in the
/// listed order by a first compress of one of their inputs; then every
/// client runs one compress/decompress pair as warm-up. Returns false
/// when a warm-up response fails its check.
bool start_rig(ServiceRig& rig, const ServiceSpec& spec,
               const std::vector<const Input*>& first_input,
               obs::Tracer* client_tracer, obs::Tracer* server_tracer) {
  net::ServerOptions opt;
  opt.tenancy.enabled = spec.tenancy;
  opt.tracer = server_tracer;
  rig.server = std::make_unique<net::ServiceServer>(opt);
  rig.server->start();
  const u16 port = rig.server->port();
  Checker check;
  bool ok = true;
  for (std::size_t i = 0; i < spec.client_tenants.size(); ++i) {
    auto client = std::make_unique<net::CereszClient>(client_policy(), nullptr,
                                                      client_tracer);
    client->connect("127.0.0.1", port);
    const u32 tenant = spec.client_tenants[i];
    if (tenant != 0) {
      client->set_tenant(tenant, spec.client_priorities[i]);
      ok &= issue(*client, *first_input[i], true, check, nullptr) ==
            Result::kOk;
    }
    rig.clients.push_back(std::move(client));
  }
  for (std::size_t i = 0; i < rig.clients.size(); ++i) {
    ok &= issue(*rig.clients[i], *first_input[i], true, check,
                nullptr) == Result::kOk;
    ok &= issue(*rig.clients[i], *first_input[i], false, check,
                nullptr) == Result::kOk;
  }
  return ok;
}

struct PhaseTotals {
  std::mutex mu;
  std::atomic<u64> attempted{0};
  std::atomic<u64> failed{0};
  std::atomic<u64> mismatched{0};

  void record(Window& w, const Input& in, bool compress, Result r,
              f64 latency_ms) {
    attempted.fetch_add(1);
    if (r != Result::kOk) failed.fetch_add(1);
    if (r == Result::kMismatch) mismatched.fetch_add(1);
    if (r != Result::kOk) return;
    std::lock_guard lock(mu);
    w.add(compress, latency_ms, static_cast<f64>(in.bytes()));
  }
};

/// Drive the rig's clients closed-loop for `seconds`, as a series of
/// windows of about kWindowSeconds. Between windows no request is in
/// flight and the host's speed is calibrated.
PhaseStats run_phase(ServiceRig& rig,
                     const std::vector<std::vector<const Input*>>& per_client,
                     f64 seconds, Checker& check, obs::Tracer* tracer) {
  PhaseTotals totals;
  std::vector<Window> windows(std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kWindowSeconds)));
  const f64 window_s = seconds / static_cast<f64>(windows.size());
  std::vector<u64> sent(rig.clients.size(), 0);  // per-client request count
  f64 slowdown_before = host_slowdown();
  for (Window& win : windows) {
    const u64 end = now_ns() + static_cast<u64>(window_s * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < rig.clients.size(); ++k) {
      threads.emplace_back([&, k] {
        // Compress on even requests, decompress of the same input on odd.
        const std::vector<const Input*>& mine = per_client[k];
        for (u64& i = sent[k]; now_ns() < end; ++i) {
          const Input& in = *mine[(i / 2) % mine.size()];
          const u64 t0 = now_ns();
          const Result r = issue(*rig.clients[k], in, i % 2 == 0, check, tracer);
          totals.record(win, in, i % 2 == 0, r, ms_since(t0, now_ns()));
        }
      });
    }
    for (auto& t : threads) t.join();
    const f64 slowdown_after = host_slowdown();
    win.compress_s = win.decompress_s = window_s;
    win.slowdown = 0.5 * (slowdown_before + slowdown_after);
    slowdown_before = slowdown_after;
  }

  PhaseStats s;
  s.attempted = totals.attempted.load();
  s.failed = totals.failed.load();
  s.mismatched = totals.mismatched.load();
  s.latency = window_medians(windows);
  std::vector<f64> slowdowns;
  for (const Window& w : windows) slowdowns.push_back(w.slowdown);
  s.slowdown = median(slowdowns);
  return s;
}

/// Per-client input lists: tenanted clients get their tenant's inputs,
/// untenanted clients share one cycle over every input.
std::vector<std::vector<const Input*>> assign_inputs(
    const ServiceSpec& spec, const std::vector<Input>& inputs) {
  std::vector<std::vector<const Input*>> per_client;
  for (u32 tenant : spec.client_tenants) {
    std::vector<const Input*> mine;
    for (const Input& in : inputs) {
      if (tenant == 0 || in.tenant == tenant) mine.push_back(&in);
    }
    per_client.push_back(std::move(mine));
  }
  return per_client;
}

/// Join the client and server traces of a traced phase and record the
/// net.* breakdown, plus the server's own counters.
void record_server_layers(ServiceRig& rig, Tracing& tracing, Outcome& out) {
  namespace analysis = obs::analysis;
  const obs::MetricsSnapshot snap = rig.server->metrics().snapshot();
  const f64 busy = static_cast<f64>(snap.counter_value(net::kMetricBusyRejected));
  const f64 served =
      static_cast<f64>(snap.counter_value(net::kMetricCompressRequests) +
                       snap.counter_value(net::kMetricDecompressRequests));
  const f64 hits = static_cast<f64>(snap.counter_value(net::kMetricPoolHits));
  const f64 misses =
      static_cast<f64>(snap.counter_value(net::kMetricPoolMisses));
  out.set("net.busy_frac", busy + served > 0 ? busy / (busy + served) : 0.0,
          "fraction");
  out.set("net.pool_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "fraction");
  out.set("net.inflight_high_water",
          snap.gauge_value(net::kMetricInflightHighWater), "count");

  const analysis::TraceData client = analysis::from_tracer(tracing.bench);
  const analysis::TraceData server = analysis::from_tracer(tracing.program);
  const analysis::StitchReport report = analysis::stitch_traces(client, server);
  out.set("net.queue_wait_ms", report.totals.mean_queue_wait_ns * 1e-6, "ms");
  out.set("net.server_engine_ms", report.totals.mean_engine_ns * 1e-6, "ms");
  out.set("net.network_ms", report.totals.mean_network_ns * 1e-6, "ms");
  out.set("net.server_span_coverage", report.totals.server_coverage,
          "fraction");
}

}  // namespace

void write_trace(const std::string& path, Tracing& tracing) {
  if (path.empty()) return;
  namespace analysis = obs::analysis;
  std::ofstream os(path);
  const analysis::TraceData client = analysis::from_tracer(tracing.bench);
  const analysis::TraceData server = analysis::from_tracer(tracing.program);
  os << analysis::merged_chrome_trace_json(
      client, server, analysis::stitch_traces(client, server));
}

ServiceRun run_service(const ServiceSpec& spec, const std::vector<Input>& inputs,
                       const RunConfig& cfg, Tracing* tracing) {
  ServiceRun run;
  const auto per_client = assign_inputs(spec, inputs);
  std::vector<const Input*> first;
  for (const auto& mine : per_client) first.push_back(mine.front());

  // Set-up, repeated: server start, tenant admission, warm-up pairs.
  std::vector<f64> setups;
  ServiceRig rig;
  f64 slowdown_before = host_slowdown();
  for (u32 r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) rig.stop();
    rig = ServiceRig{};
    const u64 t0 = now_ns();
    run.correct &= start_rig(rig, spec, first, nullptr, nullptr);
    const f64 raw_s = static_cast<f64>(now_ns() - t0) * 1e-9;
    const f64 slowdown_after = host_slowdown();
    setups.push_back(raw_s / (0.5 * (slowdown_before + slowdown_after)));
    slowdown_before = slowdown_after;
  }
  run.setup_s = median(setups);

  // Timed phase, tracing off. A traced run gives half its time to this
  // phase and follows it with a short traced phase on a traced server.
  Checker check;
  check.corrupt_next = cfg.corrupt_response;
  const f64 seconds = tracing != nullptr ? cfg.seconds / 2 : cfg.seconds;
  run.phase = run_phase(rig, per_client, seconds, check, nullptr);
  rig.stop();
  run.correct &= run.phase.mismatched == 0;

  if (tracing != nullptr) {
    ServiceRig traced;
    run.correct &=
        start_rig(traced, spec, first, &tracing->bench, &tracing->program);
    run.traced_phase = run_phase(traced, per_client, kTracedPhaseSeconds,
                                 check, &tracing->bench);
    traced.stop();
    record_server_layers(traced, *tracing, run.layers);
    run.correct &= run.traced_phase.mismatched == 0;
  }
  return run;
}

void service_layer_burst(const std::vector<Input>& inputs, Tracing& tracing,
                         ServiceRun& run) {
  ServiceSpec spec;
  spec.client_tenants = {0};
  spec.client_priorities = {net::kPriorityStandard};
  const auto per_client = assign_inputs(spec, inputs);
  ServiceRig rig;
  run.correct &= start_rig(rig, spec, {per_client[0].front()}, &tracing.bench,
                           &tracing.program);
  Checker check;
  run.traced_phase = run_phase(rig, per_client, kTracedPhaseSeconds,
                               check, &tracing.bench);
  rig.stop();
  record_server_layers(rig, tracing, run.layers);
  run.correct &= run.traced_phase.mismatched == 0;
}

}  // namespace perfbench

namespace perfbench {

namespace {

Outcome service_outcome(const ServiceSpec& spec, std::vector<Input>& inputs,
                        const RunConfig& cfg) {
  compute_references(inputs);
  const auto tracing = cfg.trace ? std::make_unique<Tracing>() : nullptr;
  ServiceRun run = run_service(spec, inputs, cfg, tracing.get());
  Outcome out;
  out.correct = run.correct;
  out.attempted = run.phase.attempted + run.traced_phase.attempted;
  out.failed = run.phase.failed + run.traced_phase.failed;
  const PhaseStats& p = run.phase;
  if (!cfg.trace) {
    out.set("setup_s", run.setup_s, "s");
    record_timings(p.latency, false, out);
    record_quality(inputs, out);
    out.set("success_frac",
            p.attempted > 0 ? 1.0 - static_cast<f64>(p.failed) /
                                        static_cast<f64>(p.attempted)
                            : 0.0,
            "fraction");
    out.set("sim_gbps", simulated_gbps(inputs, out.correct), "GB/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
  out.metrics = run.layers.metrics;
  out.set("bench.host_slowdown", p.slowdown, "x");
  record_timings(p.latency, true, out);
  out.set("obs.trace_overhead_frac",
          run.traced_phase.latency.compress_p50_ms /
                  p.latency.compress_p50_ms -
              1.0,
          "fraction");
  probe_all_layers(inputs, inputs, *tracing, out);
  write_trace(cfg.trace_out, *tracing);
  return out;
}

}  // namespace

Outcome run_wafer_tenants(const RunConfig& cfg) {
  std::vector<Input> inputs = wafer_tenant_inputs(cfg.seed);
  ServiceSpec spec;
  spec.tenancy = true;
  for (const TenantPlan& t : wafer_tenant_plan()) {
    spec.client_tenants.push_back(t.id);
    spec.client_priorities.push_back(t.priority);
  }
  return service_outcome(spec, inputs, cfg);
}

}  // namespace perfbench

// ceresz_server — the CereSZ networked compression daemon.
//
//   ceresz_server [--port P] [--workers N] [--max-inflight M]
//                 [--deadline-ms D] [--threads T] [--chunk-elems E]
//                 [--max-frame-mb MB] [--io-timeout-ms T]
//                 [--idle-timeout-ms T] [--drain-ms T]
//                 [--metrics-out FILE]
//                 [--telemetry-port P] [--trace-out FILE]
//                 [--log-level LEVEL] [--log-rate N]
//                 [--tenants N] [--tenant-quota-gbps Q]
//                 [--wafer-rows R] [--wafer-cols C]
//
// Binds 127.0.0.1:P (default 4860; 0 = ephemeral, printed on startup),
// accepts CSNP frames (docs/service.md), and serves COMPRESS /
// DECOMPRESS / STATS / PING with engine::ParallelEngine behind a
// bounded in-flight limit.
//
// Observability (docs/observability.md):
//   --telemetry-port starts a loopback HTTP endpoint next to the CSNP
//     port — GET /metrics (Prometheus), /healthz (200, or 503 while
//     draining), /tracez (recent completed-request spans as JSON).
//   --trace-out records every request's distributed span tree (CSNP v4
//     trace context; v3 clients get server-synthesized trace ids) and
//     writes a Chrome trace on exit, stitchable against a client trace
//     with `ceresz_report --stitch`.
//   Lifecycle and error-path events go to stderr as JSON lines through
//   the rate-limited obs::Logger (--log-level, --log-rate); the
//   "listening on" line CI greps stays on stdout.
//
// Shutdown: SIGTERM drains — the server stops accepting, rejects new
// work with DRAINING frames (and /healthz flips to 503), finishes what
// is in flight (bounded by --drain-ms), then exits; the
// orchestrator-friendly path. SIGINT stops immediately. With
// --metrics-out the final registry snapshot is written on exit
// (Prometheus text when FILE ends in .prom, JSON otherwise) — the same
// registry the STATS opcode serves live.
//
// Exit codes (matching the README table's convention): 0 clean
// shutdown, 1 runtime error (cannot bind, I/O failure), 2 usage error.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "net/server.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

using namespace ceresz;

std::atomic<int> g_signal{0};

void handle_signal(int sig) { g_signal.store(sig); }

int usage() {
  std::fprintf(
      stderr,
      "usage: ceresz_server [options]\n"
      "  --port P          TCP port on 127.0.0.1 (default 4860; 0 picks an\n"
      "                    ephemeral port, printed on startup)\n"
      "  --workers N       connection-worker threads (default 2)\n"
      "  --max-inflight M  admitted-but-unanswered request bound; beyond\n"
      "                    it requests get a BUSY error frame\n"
      "                    (default 2 x workers)\n"
      "  --deadline-ms D   default per-request deadline for requests that\n"
      "                    do not carry one (default 0 = none)\n"
      "  --threads T       worker threads of the server's engine, shared\n"
      "                    by all requests (default: hardware concurrency)\n"
      "  --chunk-elems E   engine chunk size in elements (multiple of 32)\n"
      "  --max-frame-mb MB reject frames declaring a larger payload\n"
      "                    (default 1024)\n"
      "  --io-timeout-ms T per-I/O-call deadline on every connection;\n"
      "                    slow-loris peers are dropped (default 30000,\n"
      "                    0 = unbounded)\n"
      "  --idle-timeout-ms T  reap connections idle between frames for\n"
      "                    longer than T (default 0 = keep-alive forever)\n"
      "  --drain-ms T      on SIGTERM, wait up to T for in-flight work\n"
      "                    before stopping (default 10000)\n"
      "  --metrics-out F   write the final metrics snapshot on shutdown\n"
      "                    (.prom = Prometheus text, else JSON)\n"
      "  --telemetry-port P  serve GET /metrics, /healthz, /tracez over\n"
      "                    HTTP on 127.0.0.1:P (0 picks an ephemeral\n"
      "                    port; printed on startup; default off)\n"
      "  --trace-out F     record per-request distributed span trees and\n"
      "                    write a Chrome trace file on shutdown\n"
      "  --log-level L     stderr JSON-lines log level: debug, info,\n"
      "                    warn, error (default info)\n"
      "  --log-rate N      non-error log records per second before the\n"
      "                    limiter sheds (default 200, 0 = unlimited)\n"
      "  --tenants N       enable multi-tenant wafer coordination with up\n"
      "                    to N concurrent tenants (docs/tenancy.md);\n"
      "                    CSNP v3 frames with a nonzero tenant id are\n"
      "                    admitted against a wafer lease, others bypass\n"
      "                    (default 0 = tenancy disabled)\n"
      "  --tenant-quota-gbps Q  standard-priority admission quota in\n"
      "                    GB/s; interactive asks 2x, batch 0.5x\n"
      "                    (default 0 = best effort)\n"
      "  --wafer-rows R    coordinated wafer rows (default 12)\n"
      "  --wafer-cols C    coordinated wafer columns (default 8)\n"
      "exit codes: 0 clean shutdown, 1 runtime error, 2 usage error\n");
  return 2;
}

bool parse_u64(const char* s, u64& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = static_cast<u64>(v);
  return true;
}

bool parse_f64(const char* s, f64& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || v < 0.0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions opt;
  opt.port = 4860;
  opt.io_timeout_ms = 30'000;  // daemons default to slow-loris defense
  u32 drain_ms = 10'000;
  std::string metrics_out;
  std::string trace_out;
  bool telemetry = false;
  u16 telemetry_port = 0;
  obs::LoggerOptions log_opt;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    u64 v = 0;
    if (a == "--port") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 0xffff) return usage();
      opt.port = static_cast<u16>(v);
    } else if (a == "--workers") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v == 0 || v > 1024) return usage();
      opt.workers = static_cast<u32>(v);
    } else if (a == "--max-inflight") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v == 0) return usage();
      opt.max_inflight = v;
    } else if (a == "--deadline-ms") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 0xffffffffull) return usage();
      opt.default_deadline_ms = static_cast<u32>(v);
    } else if (a == "--threads") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 1024) return usage();
      opt.engine.threads = static_cast<u32>(v);
    } else if (a == "--chunk-elems") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v == 0) return usage();
      opt.engine.chunk_elems = v;
    } else if (a == "--max-frame-mb") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v == 0 || v > 1024) return usage();
      opt.max_frame_payload = v << 20;
    } else if (a == "--io-timeout-ms") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 0xffffffffull) return usage();
      opt.io_timeout_ms = static_cast<u32>(v);
    } else if (a == "--idle-timeout-ms") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 0xffffffffull) return usage();
      opt.idle_timeout_ms = static_cast<u32>(v);
    } else if (a == "--drain-ms") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 0xffffffffull) return usage();
      drain_ms = static_cast<u32>(v);
    } else if (a == "--metrics-out") {
      const char* s = value();
      if (!s) return usage();
      metrics_out = s;
    } else if (a == "--telemetry-port") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 0xffff) return usage();
      telemetry = true;
      telemetry_port = static_cast<u16>(v);
    } else if (a == "--trace-out") {
      const char* s = value();
      if (!s) return usage();
      trace_out = s;
    } else if (a == "--log-level") {
      const char* s = value();
      if (!s || !obs::parse_log_level(s, log_opt.min_level)) return usage();
    } else if (a == "--log-rate") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v > 0xffffffffull) return usage();
      log_opt.max_events_per_sec = static_cast<u32>(v);
    } else if (a == "--tenants") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v == 0 || v > 1024) return usage();
      opt.tenancy.enabled = true;
      opt.tenancy.max_tenants = static_cast<u32>(v);
    } else if (a == "--tenant-quota-gbps") {
      const char* s = value();
      f64 q = 0.0;
      if (!s || !parse_f64(s, q)) return usage();
      opt.tenancy.default_quota_gbps = q;
    } else if (a == "--wafer-rows") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v == 0 || v > 4096) return usage();
      opt.tenancy.wafer_rows = static_cast<u32>(v);
    } else if (a == "--wafer-cols") {
      const char* s = value();
      if (!s || !parse_u64(s, v) || v == 0 || v > 4096) return usage();
      opt.tenancy.wafer_cols = static_cast<u32>(v);
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "ceresz_server: unknown flag %s\n", a.c_str());
      return usage();
    }
  }

  try {
    obs::Logger logger(log_opt);
    obs::SpanLog span_log;
    std::unique_ptr<obs::Tracer> tracer;
    if (!trace_out.empty()) {
      tracer = std::make_unique<obs::Tracer>();
      tracer->set_process_name(obs::kHostPid, "ceresz_server");
    }
    opt.logger = &logger;
    opt.span_log = &span_log;
    opt.tracer = tracer.get();

    net::ServiceServer server(std::move(opt));
    server.start();

    std::unique_ptr<obs::TelemetryEndpoint> endpoint;
    if (telemetry) {
      obs::TelemetryOptions topt;
      topt.port = telemetry_port;
      topt.metrics = &server.metrics();
      topt.spans = &span_log;
      topt.logger = &logger;
      endpoint = std::make_unique<obs::TelemetryEndpoint>(topt);
      endpoint->start();
      std::printf("ceresz_server telemetry on 127.0.0.1:%u "
                  "(/metrics /healthz /tracez)\n",
                  static_cast<unsigned>(endpoint->port()));
    }
    std::printf("ceresz_server listening on 127.0.0.1:%u "
                "(workers=%u, max-inflight=%llu, deadline-ms=%u)\n",
                static_cast<unsigned>(server.port()),
                static_cast<unsigned>(server.options().workers),
                static_cast<unsigned long long>(
                    server.resolved_max_inflight()),
                static_cast<unsigned>(server.options().default_deadline_ms));
    if (server.options().tenancy.enabled) {
      std::printf("ceresz_server tenancy: max-tenants=%u wafer=%ux%u "
                  "quota-gbps=%.3f\n",
                  static_cast<unsigned>(server.options().tenancy.max_tenants),
                  static_cast<unsigned>(server.options().tenancy.wafer_rows),
                  static_cast<unsigned>(server.options().tenancy.wafer_cols),
                  server.options().tenancy.default_quota_gbps);
    }
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (g_signal.load() == 0) pause();  // returns on a delivered signal

    if (g_signal.load() == SIGTERM) {
      // Graceful drain: refuse new work, finish what is in flight (up
      // to --drain-ms), then stop. SIGINT skips straight to stop().
      std::printf("ceresz_server: draining (up to %u ms)\n",
                  static_cast<unsigned>(drain_ms));
      std::fflush(stdout);
      if (endpoint) endpoint->set_draining(true);
      server.drain();
      if (!server.wait_idle(drain_ms)) {
        std::fprintf(stderr,
                     "ceresz_server: drain timed out with %llu requests "
                     "still in flight\n",
                     static_cast<unsigned long long>(server.inflight()));
      }
    }
    std::printf("ceresz_server: shutting down\n");
    std::fflush(stdout);
    server.stop();
    if (endpoint) endpoint->stop();

    if (tracer != nullptr && !trace_out.empty()) {
      obs::export_trace_metrics(*tracer, server.metrics());
      std::ofstream out(trace_out, std::ios::binary);
      if (!out.good()) {
        std::fprintf(stderr, "ceresz_server: cannot write %s\n",
                     trace_out.c_str());
        return 1;
      }
      tracer->write_chrome_trace(out);
    }

    if (!metrics_out.empty()) {
      const obs::MetricsSnapshot snap = server.metrics().snapshot();
      std::ofstream out(metrics_out, std::ios::binary);
      if (!out.good()) {
        std::fprintf(stderr, "ceresz_server: cannot write %s\n",
                     metrics_out.c_str());
        return 1;
      }
      out << (obs::is_prometheus_path(metrics_out) ? obs::to_prometheus(snap)
                                                   : obs::to_json(snap));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ceresz_server: %s\n", e.what());
    return 1;
  }
}

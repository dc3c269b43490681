#include "net/server.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/timer.h"
#include "core/kernels.h"
#include "engine/bounded_queue.h"
#include "net/buffer_pool.h"
#include "net/socket.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "tenant/coordinator.h"

namespace ceresz::net {

namespace {

/// Handles into the server registry; looked up once at construction so
/// the serving hot path never takes the registry's creation mutex.
struct ServerMetrics {
  obs::Counter& connections;
  obs::Gauge& active_connections;
  obs::Counter& requests;
  obs::Counter& ping_requests;
  obs::Counter& stats_requests;
  obs::Counter& compress_requests;
  obs::Counter& decompress_requests;
  obs::Counter& busy_rejected;
  obs::Counter& deadline_expired;
  obs::Counter& malformed;
  obs::Counter& error_responses;
  obs::Counter& request_bytes;
  obs::Counter& response_bytes;
  obs::Gauge& inflight;
  obs::Gauge& inflight_high_water;
  obs::Histogram& compress_seconds;
  obs::Histogram& decompress_seconds;
  obs::Counter& pool_hits;
  obs::Counter& pool_misses;
  obs::Counter& idle_reaped;
  obs::Counter& io_timeouts;
  obs::Counter& crc_rejected;
  obs::Counter& drain_rejected;
  obs::Gauge& draining;
  obs::Counter& tenant_shed;

  explicit ServerMetrics(obs::MetricsRegistry& reg)
      : connections(reg.counter(kMetricConnections)),
        active_connections(reg.gauge(kMetricActiveConnections)),
        requests(reg.counter(kMetricRequests)),
        ping_requests(reg.counter(kMetricPingRequests)),
        stats_requests(reg.counter(kMetricStatsRequests)),
        compress_requests(reg.counter(kMetricCompressRequests)),
        decompress_requests(reg.counter(kMetricDecompressRequests)),
        busy_rejected(reg.counter(kMetricBusyRejected)),
        deadline_expired(reg.counter(kMetricDeadlineExpired)),
        malformed(reg.counter(kMetricMalformed)),
        error_responses(reg.counter(kMetricErrorResponses)),
        request_bytes(reg.counter(kMetricRequestBytes)),
        response_bytes(reg.counter(kMetricResponseBytes)),
        inflight(reg.gauge(kMetricInflight)),
        inflight_high_water(reg.gauge(kMetricInflightHighWater)),
        compress_seconds(reg.histogram(
            kMetricCompressSeconds,
            obs::MetricsRegistry::default_seconds_buckets())),
        decompress_seconds(reg.histogram(
            kMetricDecompressSeconds,
            obs::MetricsRegistry::default_seconds_buckets())),
        pool_hits(reg.counter(kMetricPoolHits)),
        pool_misses(reg.counter(kMetricPoolMisses)),
        idle_reaped(reg.counter(kMetricIdleReaped)),
        io_timeouts(reg.counter(kMetricIoTimeouts)),
        crc_rejected(reg.counter(kMetricPayloadCrcRejected)),
        drain_rejected(reg.counter(kMetricDrainRejected)),
        draining(reg.gauge(kMetricDraining)),
        tenant_shed(reg.counter(kMetricTenantShed)) {}
};

/// One client connection. The reader thread owns the receive side; the
/// write mutex serializes responses from workers with BUSY/error frames
/// from the reader. `open` goes false on the first transport failure so
/// later sends become no-ops instead of repeated errors.
struct Connection {
  Socket sock;
  std::mutex write_mu;
  std::atomic<bool> open{true};
};

}  // namespace

void declare_server_metrics(obs::MetricsRegistry& reg) {
  ServerMetrics declared(reg);
  (void)declared;
}

struct ServiceServer::Impl {
  /// A COMPRESS/DECOMPRESS frame admitted past the in-flight limit,
  /// waiting for (or being executed by) a worker.
  struct PendingRequest {
    std::shared_ptr<Connection> conn;
    FrameHeader header;
    PooledBuffer payload;
    u64 arrival_ns = 0;
    bool holds_slot = true;  ///< still counted in inflight_
  };

  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };

  Impl(ServiceServer& server, u64 max_inflight)
      : server_(server),
        options_(server.options_),
        m_(server.registry_),
        engine_(engine_options()),
        max_inflight_(max_inflight),
        pool_(options_.pool_buffers, &m_.pool_hits, &m_.pool_misses),
        queue_(static_cast<std::size_t>(max_inflight)) {
    if (options_.tenancy.enabled) {
      tenant::CoordinatorOptions copt;
      copt.rows = options_.tenancy.wafer_rows;
      copt.cols = options_.tenancy.wafer_cols;
      copt.max_tenants = options_.tenancy.max_tenants;
      copt.metrics = &server.registry_;
      coordinator_ = std::make_unique<tenant::WaferCoordinator>(copt);
    }
  }

  ServiceServer& server_;
  const ServerOptions& options_;
  ServerMetrics m_;
  // One engine, and so one worker pool and one deadline timer, for the
  // server's whole run, shared by every connection worker.
  const engine::ParallelEngine engine_;
  const u64 max_inflight_;
  BufferPool pool_;
  engine::BoundedQueue<PendingRequest> queue_;  // after pool_: drains first
  std::unique_ptr<tenant::WaferCoordinator> coordinator_;

  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex conn_mu_;
  std::vector<ReaderSlot> readers_;

  std::atomic<u64> inflight_{0};
  std::atomic<u64> handling_{0};  // requests a worker is handling
  std::atomic<u64> inflight_high_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  // --- response plumbing ----------------------------------------------------

  void send(Connection& conn, std::span<const u8> frame) {
    std::lock_guard lock(conn.write_mu);
    if (!conn.open.load(std::memory_order_acquire)) return;
    try {
      conn.sock.write_all(frame);
      m_.response_bytes.add(frame.size());
    } catch (const Error&) {
      // The peer is gone; the reader will notice on its next read.
      conn.open.store(false, std::memory_order_release);
      conn.sock.shutdown_both();
    }
  }

  void send_error(Connection& conn, Opcode op, Status status, u64 request_id,
                  std::string_view message, FrameMeta meta = {}) {
    m_.error_responses.add(1);
    PooledBuffer out = pool_.acquire();
    append_error_frame(*out, op, status, request_id, message, meta);
    send(conn, *out);
  }

  // --- tenancy --------------------------------------------------------------

  /// First sight of a tenant admits it against the configured quota
  /// (scaled by the frame's priority); later frames just check the
  /// lease. Returns false — with the coordinator's verdict in `reason`
  /// — when the tenant has no lease and cannot get one right now.
  bool tenant_admitted(const FrameHeader& header, std::string& reason) {
    const tenant::TenantId id = header.tenant.tenant_id;
    if (coordinator_->lease_of(id).has_value()) return true;
    tenant::TenantSpec spec;
    spec.id = id;
    spec.priority = static_cast<tenant::Priority>(header.tenant.priority);
    const f64 scale = spec.priority == tenant::Priority::kInteractive ? 2.0
                      : spec.priority == tenant::Priority::kBatch     ? 0.5
                                                                      : 1.0;
    spec.min_throughput_gbps = options_.tenancy.default_quota_gbps * scale;
    const tenant::AdmissionResult r = coordinator_->admit(spec);
    if (r.verdict == tenant::AdmissionVerdict::kAdmitted) return true;
    // Two readers can race the first admission; the loser's "already
    // active" rejection means the tenant IS admitted.
    if (coordinator_->lease_of(id).has_value()) return true;
    reason = r.reason;
    return false;
  }

  // --- admission ------------------------------------------------------------

  void note_inflight(u64 now_inflight) {
    m_.inflight.set(static_cast<f64>(now_inflight));
    u64 high = inflight_high_.load(std::memory_order_relaxed);
    while (now_inflight > high &&
           !inflight_high_.compare_exchange_weak(high, now_inflight,
                                                 std::memory_order_relaxed)) {
    }
    m_.inflight_high_water.set(
        static_cast<f64>(inflight_high_.load(std::memory_order_relaxed)));
  }

  // --- reader ---------------------------------------------------------------

  void reader_loop(std::shared_ptr<Connection> conn) {
    std::array<u8, kFrameHeaderBytesV4> hdr_bytes;
    for (;;) {
      // Between frames: wait for the next header byte without
      // committing to a read. Idle time is budgeted separately
      // (idle_timeout_ms; 0 = unbounded) from mid-frame stalls
      // (io_timeout_ms), so a polite keep-alive connection is never
      // reaped by the slow-loris defense — only by the idle reaper.
      // stop()'s shutdown_both wakes this poll as readable-EOF.
      if (!conn->sock.wait_readable(options_.idle_timeout_ms)) {
        m_.idle_reaped.add(1);
        break;
      }
      // Pull the 36-byte common prefix, peek the version byte, and read
      // the v4 trace tail when it is there — v3 clients are parsed from
      // the prefix alone, exactly as before.
      std::size_t hdr_len = kFrameHeaderBytes;
      try {
        if (!conn->sock.read_exact_or_eof(
                std::span<u8>(hdr_bytes.data(), kFrameHeaderBytes))) {
          break;
        }
        hdr_len = frame_header_bytes(hdr_bytes[4]);
        if (hdr_len > kFrameHeaderBytes) {
          conn->sock.read_exact(
              std::span<u8>(hdr_bytes.data() + kFrameHeaderBytes,
                            hdr_len - kFrameHeaderBytes));
        }
      } catch (const NetTimeout&) {
        m_.io_timeouts.add(1);  // slow-loris: header dribbled too slowly
        break;
      } catch (const Error&) {
        break;  // reset / shutdown-in-progress
      }

      FrameHeader header;
      try {
        header = parse_frame_header(
            std::span<const u8>(hdr_bytes.data(), hdr_len),
            options_.max_frame_payload);
      } catch (const Error& e) {
        // Framing is lost — there is no way to find the next frame
        // boundary in a byte stream with a corrupt header. Report and
        // hang up (the anti-bomb payload bound is enforced here too,
        // before any allocation).
        m_.malformed.add(1);
        if (options_.logger != nullptr) {
          options_.logger->warn("server.malformed_header",
                                {{"error", e.what()}});
        }
        send_error(*conn, Opcode::kPing, Status::kMalformed, 0, e.what());
        break;
      }

      PooledBuffer payload = pool_.acquire();
      payload->resize(static_cast<std::size_t>(header.payload_bytes));
      try {
        conn->sock.read_exact(*payload);
      } catch (const NetTimeout&) {
        m_.io_timeouts.add(1);  // payload stalled mid-frame
        break;
      } catch (const Error&) {
        break;  // truncated frame: peer died mid-send
      }
      m_.requests.add(1);
      m_.request_bytes.add(hdr_len + header.payload_bytes);

      if (!payload_crc_ok(header, *payload)) {
        // The frame arrived whole but its bytes do not match the CRC the
        // sender computed: in-flight corruption. Framing is intact, so
        // the connection survives — reject just this request, loudly.
        m_.crc_rejected.add(1);
        m_.malformed.add(1);
        if (options_.logger != nullptr) {
          options_.logger->warn("server.crc_rejected",
                                {{"request_id", header.request_id},
                                 {"tenant_id", header.tenant.tenant_id}});
        }
        send_error(*conn, header.opcode, Status::kMalformed,
                   header.request_id,
                   "request payload failed its CRC check "
                   "(in-flight corruption)",
                   echo_meta(header));
        continue;
      }

      switch (header.opcode) {
        case Opcode::kPing: {
          m_.ping_requests.add(1);
          // The PING payload doubles as a lifecycle probe: retrying
          // clients and load balancers read DRAINING here and move on.
          const std::string_view state =
              draining_.load(std::memory_order_acquire) ? "DRAINING"
                                                        : "SERVING";
          PooledBuffer out = pool_.acquire();
          append_frame(*out, Opcode::kPing, Status::kOk, header.request_id,
                       std::span<const u8>(
                           reinterpret_cast<const u8*>(state.data()),
                           state.size()),
                       echo_meta(header));
          send(*conn, *out);
          break;
        }
        case Opcode::kStats: {
          m_.stats_requests.add(1);
          const std::string json =
              obs::to_json(server_.registry_.snapshot());
          PooledBuffer out = pool_.acquire();
          append_frame(*out, Opcode::kStats, Status::kOk, header.request_id,
                       std::span<const u8>(
                           reinterpret_cast<const u8*>(json.data()),
                           json.size()),
                       echo_meta(header));
          send(*conn, *out);
          break;
        }
        case Opcode::kCompress:
        case Opcode::kDecompress: {
          // Every work request gets a trace id: v4 frames carry the
          // client's, v3 (and zero-trace v4) frames get one synthesized
          // here so server-side spans are always attributable. The
          // response echoes whatever the request carried, so v3 clients
          // see byte-identical frames.
          if (header.trace.trace_id == 0) {
            header.trace.trace_id = obs::next_trace_id();
          }
          const obs::TraceContextScope admit_scope(obs::TraceContext{
              header.trace.trace_id, header.trace.parent_span_id});
          const obs::SpanGuard admit_span(
              options_.tracer, "server.admit", "server", "request_id",
              static_cast<i64>(header.request_id), "tenant_id",
              static_cast<i64>(header.tenant.tenant_id));
          if (draining_.load(std::memory_order_acquire)) {
            // Drain mode: finish what was admitted, take nothing new.
            // The reader hangs up after the rejection so lingering
            // keep-alive connections cannot stall the exit.
            m_.drain_rejected.add(1);
            if (options_.logger != nullptr) {
              options_.logger->info("server.drain_rejected",
                                    {{"request_id", header.request_id},
                                     {"tenant_id", header.tenant.tenant_id}});
            }
            send_error(*conn, header.opcode, Status::kDraining,
                       header.request_id,
                       "server is draining; no new work accepted",
                       echo_meta(header));
            conn->open.store(false, std::memory_order_release);
            conn->sock.shutdown_both();
            m_.active_connections.add(-1.0);
            return;
          }
          // Tenant admission (CSNP v3): a nonzero tenant id must hold a
          // wafer lease before its work is accepted. A tenant the
          // coordinator rejects or queues is shed with BUSY — the same
          // retryable verdict as the in-flight limit, but decided by
          // the Formula (2)-(4) prediction instead of a counter.
          if (coordinator_ != nullptr && header.tenant.tenant_id != 0) {
            std::string reason;
            if (!tenant_admitted(header, reason)) {
              m_.tenant_shed.add(1);
              if (options_.logger != nullptr) {
                options_.logger->warn(
                    "server.tenant_shed",
                    {{"request_id", header.request_id},
                     {"tenant_id", header.tenant.tenant_id},
                     {"reason", reason}});
              }
              send_error(*conn, header.opcode, Status::kBusy,
                         header.request_id, reason, echo_meta(header));
              break;
            }
          }
          // Bounded in-flight admission (queued + executing). Beyond
          // the limit, shed load NOW: an explicit BUSY beats an
          // unbounded queue melting down under a traffic spike.
          const u64 now_inflight =
              inflight_.fetch_add(1, std::memory_order_acq_rel) + 1;
          if (now_inflight > max_inflight_) {
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
            m_.busy_rejected.add(1);
            send_error(*conn, header.opcode, Status::kBusy,
                       header.request_id,
                       "server is at its in-flight request limit",
                       echo_meta(header));
            break;
          }
          note_inflight(now_inflight);
          PendingRequest req;
          req.conn = conn;
          req.header = header;
          req.payload = std::move(payload);
          req.arrival_ns = now_ns();
          // Capacity == max_inflight and admission counts executing
          // requests too, so the queue always has room; push can only
          // be refused once stop() closed the queue.
          if (!queue_.try_push(std::move(req))) {
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
            return;  // shutting down
          }
          break;
        }
      }
    }
    conn->open.store(false, std::memory_order_release);
    conn->sock.shutdown_both();
    m_.active_connections.add(-1.0);
  }

  // --- workers --------------------------------------------------------------

  void worker_loop() {
    while (auto req = queue_.pop()) {
      handling_.fetch_add(1, std::memory_order_acq_rel);
      handle(*req);
      release_slot(*req);  // a no-op once handle() has responded
      handling_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }

  /// Free the request's in-flight slot. Done just before its response is
  /// written, so a client that sends its next request as soon as it has
  /// read this response is never refused for a request that is already
  /// answered. wait_idle() still waits for the write through handling_.
  void release_slot(PendingRequest& req) {
    if (!req.holds_slot) return;
    req.holds_slot = false;
    const u64 now_inflight =
        inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    m_.inflight.set(static_cast<f64>(now_inflight));
  }

  void respond(PendingRequest& req, std::span<const u8> frame) {
    release_slot(req);
    send(*req.conn, frame);
  }

  void respond_error(PendingRequest& req, Status status,
                     std::string_view message) {
    release_slot(req);
    send_error(*req.conn, req.header.opcode, status, req.header.request_id,
               message, echo_meta(req.header));
  }

  /// Deadline for a request: its own deadline_ms, else the server
  /// default; 0 = none. The clock starts at frame arrival, so time
  /// spent waiting in the queue counts against the budget.
  u64 deadline_ns_for(u32 request_deadline_ms, u64 arrival_ns) const {
    const u32 ms = request_deadline_ms != 0 ? request_deadline_ms
                                            : options_.default_deadline_ms;
    return ms == 0 ? 0 : arrival_ns + static_cast<u64>(ms) * 1'000'000;
  }

  /// The server engine's options: metrics flow into the server
  /// registry, and spans into the server tracer when there is one — chunk
  /// and pool spans inherit each request's trace id through the ambient
  /// context installed by handle().
  engine::EngineOptions engine_options() const {
    engine::EngineOptions eopt = options_.engine;
    eopt.metrics = &server_.registry_;
    if (options_.tracer != nullptr) eopt.tracer = options_.tracer;
    return eopt;
  }

  /// A request's deadline (0 = none) as the engine's run deadline: no
  /// chunk attempt outlives it, so a wedged chunk is cancelled through
  /// its CancelToken instead of wedging the connection. now_ns() reads
  /// steady_clock, the engine's clock.
  static engine::Deadline engine_deadline(u64 deadline_ns) {
    if (deadline_ns == 0) return std::nullopt;
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(deadline_ns));
  }

  void handle(PendingRequest& req) {
    const Opcode op = req.header.opcode;
    const u64 id = req.header.request_id;
    const TenantTag tag = req.header.tenant;
    const TraceTag trace = req.header.trace;  // trace_id synthesized on admit
    const FrameMeta meta = echo_meta(req.header);
    obs::Histogram& latency = op == Opcode::kCompress
                                  ? m_.compress_seconds
                                  : m_.decompress_seconds;
    (op == Opcode::kCompress ? m_.compress_requests : m_.decompress_requests)
        .add(1);

    // Server-side span tree for this request: a "server.request" root
    // (recorded by finish, spanning arrival → response) whose span id
    // every worker-side span parents to through the ambient context,
    // and whose parent_span_id is the client attempt span that sent the
    // frame — the stitcher's join key.
    const u64 root_span = obs::next_span_id();
    const obs::TraceContextScope trace_scope(
        obs::TraceContext{trace.trace_id, root_span});
    if (options_.tracer != nullptr) {
      // Queue wait: frame arrival → a worker picked it up (now).
      obs::TraceEvent qe;
      qe.name = "server.queue_wait";
      qe.cat = "server";
      qe.ts_ns = options_.tracer->to_rel_ns(req.arrival_ns);
      const u64 picked = options_.tracer->now_rel_ns();
      qe.dur_ns = picked > qe.ts_ns ? picked - qe.ts_ns : 0;
      qe.arg1_name = "request_id";
      qe.arg1 = static_cast<i64>(id);
      options_.tracer->record(qe);
    }

    const auto finish = [&](const char* status) {
      const u64 end_ns = now_ns();
      const u64 total_ns =
          end_ns > req.arrival_ns ? end_ns - req.arrival_ns : 0;
      const f64 seconds = static_cast<f64>(total_ns) * 1e-9;
      latency.observe(seconds);
      if (options_.tracer != nullptr) {
        obs::TraceEvent ev;
        ev.name = "server.request";
        ev.cat = "server";
        ev.ts_ns = options_.tracer->to_rel_ns(req.arrival_ns);
        ev.dur_ns = total_ns;
        ev.arg1_name = "request_id";
        ev.arg1 = static_cast<i64>(id);
        ev.arg2_name = "tenant_id";
        ev.arg2 = static_cast<i64>(tag.tenant_id);
        ev.trace_id = trace.trace_id;
        ev.span_id = root_span;
        ev.parent_span_id = trace.parent_span_id;
        options_.tracer->record(ev);
      }
      if (options_.span_log != nullptr) {
        obs::SpanRecord rec;
        rec.trace_id = trace.trace_id;
        rec.request_id = id;
        rec.tenant_id = tag.tenant_id;
        rec.name = opcode_name(op);
        rec.status = status;
        rec.ts_ns = req.arrival_ns;
        rec.dur_ns = total_ns;
        options_.span_log->push(rec);
      }
      if (coordinator_ != nullptr && tag.tenant_id != 0) {
        // Per-tenant accounting next to the coordinator's lease
        // gauges: a queue-inclusive latency histogram and a request
        // counter per tenant id.
        server_.registry_
            .counter(tenant::tenant_metric_name(tag.tenant_id,
                                                "requests_total"))
            .add(1);
        server_.registry_
            .histogram(tenant::tenant_metric_name(
                           tag.tenant_id, tenant::kTenantRequestSecondsSuffix),
                       obs::MetricsRegistry::default_seconds_buckets())
            .observe(seconds);
      }
    };

    u64 deadline_ns = 0;
    try {
      if (op == Opcode::kCompress) {
        CompressRequest creq;
        {
          const obs::SpanGuard decode_span(options_.tracer, "server.decode",
                                           "server", "request_id",
                                           static_cast<i64>(id));
          creq = decode_compress_request(*req.payload);
        }
        deadline_ns = deadline_ns_for(creq.deadline_ms, req.arrival_ns);
        if (deadline_ns != 0 && now_ns() >= deadline_ns) {
          m_.deadline_expired.add(1);
          respond_error(req, Status::kDeadlineExpired,
                        "request deadline expired before execution started");
          finish("DEADLINE_EXPIRED");
          return;
        }
        engine::EngineResult result;
        {
          const obs::SpanGuard engine_span(options_.tracer, "server.engine",
                                           "server", "request_id",
                                           static_cast<i64>(id));
          result = engine_.compress(creq.data, creq.bound,
                                    engine_deadline(deadline_ns));
        }
        if (deadline_ns != 0 && now_ns() >= deadline_ns) {
          m_.deadline_expired.add(1);
          respond_error(req, Status::kDeadlineExpired,
                        "request deadline expired during compression");
          finish("DEADLINE_EXPIRED");
          return;
        }
        PooledBuffer out = pool_.acquire();
        {
          const obs::SpanGuard encode_span(options_.tracer, "server.encode",
                                           "server", "request_id",
                                           static_cast<i64>(id));
          append_frame(*out, op, Status::kOk, id, result.stream, meta);
        }
        const obs::SpanGuard write_span(options_.tracer, "server.write",
                                        "server", "request_id",
                                        static_cast<i64>(id));
        respond(req, *out);
      } else {
        DecompressRequest dreq;
        {
          const obs::SpanGuard decode_span(options_.tracer, "server.decode",
                                           "server", "request_id",
                                           static_cast<i64>(id));
          dreq = decode_decompress_request(*req.payload);
        }
        deadline_ns = deadline_ns_for(dreq.deadline_ms, req.arrival_ns);
        if (deadline_ns != 0 && now_ns() >= deadline_ns) {
          m_.deadline_expired.add(1);
          respond_error(req, Status::kDeadlineExpired,
                        "request deadline expired before execution started");
          finish("DEADLINE_EXPIRED");
          return;
        }
        engine::DecompressResult result;
        {
          const obs::SpanGuard engine_span(options_.tracer, "server.engine",
                                           "server", "request_id",
                                           static_cast<i64>(id));
          result = engine_.decompress(dreq.stream,
                                      engine_deadline(deadline_ns));
        }
        if (deadline_ns != 0 && now_ns() >= deadline_ns) {
          m_.deadline_expired.add(1);
          respond_error(req, Status::kDeadlineExpired,
                        "request deadline expired during decompression");
          finish("DEADLINE_EXPIRED");
          return;
        }
        PooledBuffer out = pool_.acquire();
        {
          const obs::SpanGuard encode_span(options_.tracer, "server.encode",
                                           "server", "request_id",
                                           static_cast<i64>(id));
          std::vector<u8> body;
          append_decompress_response(body, result.values);
          append_frame(*out, op, Status::kOk, id, body, meta);
        }
        const obs::SpanGuard write_span(options_.tracer, "server.write",
                                        "server", "request_id",
                                        static_cast<i64>(id));
        respond(req, *out);
      }
    } catch (const Error& e) {
      // Map the failure the way the CLI maps exit codes: a passed
      // deadline wins (the engine's timeouts are a symptom of it), an
      // undecodable payload is the client's frame, a bad DECOMPRESS
      // stream is corrupt data, anything else is on the server.
      Status status;
      if (deadline_ns != 0 && now_ns() >= deadline_ns) {
        m_.deadline_expired.add(1);
        status = Status::kDeadlineExpired;
      } else if (std::string_view(e.what()).find("net:") !=
                 std::string_view::npos) {
        m_.malformed.add(1);
        status = Status::kMalformed;
      } else if (op == Opcode::kDecompress) {
        status = Status::kCorruptStream;
      } else {
        status = Status::kInternal;
      }
      if (options_.logger != nullptr) {
        options_.logger->warn("server.request_failed",
                              {{"request_id", id},
                               {"tenant_id", tag.tenant_id},
                               {"status", status_name(status)},
                               {"error", e.what()}});
      }
      respond_error(req, status, e.what());
      finish(status_name(status));
      return;
    } catch (const std::exception& e) {
      if (options_.logger != nullptr) {
        options_.logger->error("server.request_failed",
                               {{"request_id", id},
                                {"tenant_id", tag.tenant_id},
                                {"status", "INTERNAL"},
                                {"error", e.what()}});
      }
      respond_error(req, Status::kInternal, e.what());
      finish("INTERNAL");
      return;
    }
    finish("OK");
  }

  // --- lifecycle ------------------------------------------------------------

  void accept_loop() {
    for (;;) {
      Socket sock = listener_->accept_connection();
      if (!sock.valid() || stopping_.load(std::memory_order_acquire)) break;
      sock.set_nodelay();
      // Every read and write on this connection runs under the per-call
      // deadline; a peer that stalls mid-frame (or never drains our
      // response) is dropped without affecting its neighbors.
      sock.set_io_timeout(options_.io_timeout_ms);
      auto conn = std::make_shared<Connection>();
      conn->sock = std::move(sock);
      m_.connections.add(1);
      m_.active_connections.add(1.0);
      std::lock_guard lock(conn_mu_);
      reap_finished_locked();
      ReaderSlot slot;
      slot.conn = conn;
      slot.thread = std::thread([this, conn] { reader_loop(conn); });
      readers_.push_back(std::move(slot));
    }
  }

  /// Join reader threads whose connection has closed, so a long-running
  /// server does not accumulate one dead thread per past connection.
  /// Called with conn_mu_ held.
  void reap_finished_locked() {
    auto it = readers_.begin();
    while (it != readers_.end()) {
      if (!it->conn->open.load(std::memory_order_acquire)) {
        it->thread.join();
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void start() {
    listener_ = std::make_unique<TcpListener>(options_.port);
    for (u32 w = 0; w < std::max(1u, options_.workers); ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
    if (options_.logger != nullptr) {
      options_.logger->info("server.started",
                            {{"port", listener_->port()},
                             {"workers", options_.workers},
                             {"max_inflight", max_inflight_},
                             {"kernel_isa", core::kernels().isa}});
    }
  }

  void drain() {
    if (draining_.exchange(true, std::memory_order_acq_rel)) return;
    m_.draining.set(1.0);
    if (options_.logger != nullptr) {
      options_.logger->info(
          "server.draining",
          {{"inflight", inflight_.load(std::memory_order_acquire)}});
    }
    // Stop accepting: the accept loop exits on the invalid socket; the
    // listener itself is closed later by stop(). Existing readers keep
    // running so in-flight work can answer and PING can say DRAINING.
    if (listener_) listener_->shutdown();
  }

  bool wait_idle(u32 timeout_ms) {
    const u64 deadline =
        timeout_ms == 0 ? 0
                        : now_ns() + static_cast<u64>(timeout_ms) * 1'000'000;
    while (inflight_.load(std::memory_order_acquire) != 0 ||
           handling_.load(std::memory_order_acquire) != 0) {
      if (deadline != 0 && now_ns() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  void stop() {
    stopping_.store(true, std::memory_order_release);
    if (listener_) listener_->shutdown();
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      std::lock_guard lock(conn_mu_);
      for (ReaderSlot& slot : readers_) {
        slot.conn->open.store(false, std::memory_order_release);
        slot.conn->sock.shutdown_both();
      }
      for (ReaderSlot& slot : readers_) {
        if (slot.thread.joinable()) slot.thread.join();
      }
      readers_.clear();
    }
    queue_.close();  // workers drain what is queued, then exit
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
    if (listener_) listener_->close();
    if (options_.logger != nullptr) {
      options_.logger->info("server.stopped", {});
    }
  }
};

ServiceServer::ServiceServer(ServerOptions options)
    : options_(std::move(options)) {
  CERESZ_CHECK(options_.workers > 0, "ServiceServer: need at least 1 worker");
  CERESZ_CHECK(options_.max_frame_payload > 0 &&
                   options_.max_frame_payload <= kDefaultMaxPayload,
               "ServiceServer: max_frame_payload must be in (0, 1 GiB]");
  declare_server_metrics(registry_);
  engine::declare_engine_metrics(registry_);
  registry_
      .gauge(std::string(kMetricKernelIsa) + "{isa=\"" +
             core::kernels().isa + "\"}")
      .set(1.0);
}

ServiceServer::~ServiceServer() { stop(); }

u64 ServiceServer::resolved_max_inflight() const {
  return options_.max_inflight != 0 ? options_.max_inflight
                                    : u64{2} * options_.workers;
}

void ServiceServer::start() {
  CERESZ_CHECK(!running_.load(std::memory_order_acquire),
               "ServiceServer: already running");
  impl_ = std::make_unique<Impl>(*this, resolved_max_inflight());
  impl_->start();
  running_.store(true, std::memory_order_release);
}

void ServiceServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  impl_->stop();
  impl_.reset();
}

void ServiceServer::drain() {
  if (running_.load(std::memory_order_acquire) && impl_ != nullptr) {
    impl_->drain();
  }
}

bool ServiceServer::draining() const {
  return running_.load(std::memory_order_acquire) && impl_ != nullptr &&
         impl_->draining_.load(std::memory_order_acquire);
}

u64 ServiceServer::inflight() const {
  return impl_ != nullptr
             ? impl_->inflight_.load(std::memory_order_acquire)
             : 0;
}

bool ServiceServer::wait_idle(u32 timeout_ms) {
  return impl_ == nullptr || impl_->wait_idle(timeout_ms);
}

tenant::WaferCoordinator* ServiceServer::coordinator() {
  return impl_ != nullptr ? impl_->coordinator_.get() : nullptr;
}

u16 ServiceServer::port() const {
  CERESZ_CHECK(impl_ != nullptr && impl_->listener_ != nullptr,
               "ServiceServer: not started");
  return impl_->listener_->port();
}

}  // namespace ceresz::net

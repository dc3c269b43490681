// Service-layer suite: CSNP protocol codecs, BufferPool, and live
// loopback ServiceServer/CereszClient round trips — including the
// load-shedding (BUSY), deadline, and hostile-input paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/kernels.h"
#include "engine/parallel_engine.h"
#include "net/buffer_pool.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/log.h"
#include "test_util.h"

namespace ceresz::net {
namespace {

// --- protocol codecs --------------------------------------------------------

TEST(Protocol, FrameHeaderRoundTrip) {
  FrameHeader h;
  h.opcode = Opcode::kCompress;
  h.status = Status::kBusy;
  h.request_id = 0x0123456789abcdefull;
  h.payload_bytes = 12345;
  h.trace = TraceTag{0x123456789abcull, 42};
  std::vector<u8> bytes;
  append_frame_header(bytes, h);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytesV4);
  const FrameHeader back = parse_frame_header(bytes, kDefaultMaxPayload);
  EXPECT_EQ(back.version, kProtocolVersion);
  EXPECT_EQ(back.opcode, Opcode::kCompress);
  EXPECT_EQ(back.status, Status::kBusy);
  EXPECT_EQ(back.request_id, h.request_id);
  EXPECT_EQ(back.payload_bytes, h.payload_bytes);
  EXPECT_EQ(back.trace.trace_id, h.trace.trace_id);
  EXPECT_EQ(back.trace.parent_span_id, h.trace.parent_span_id);
}

TEST(Protocol, HeaderRejectsBadMagicVersionOpcodeAndOversize) {
  FrameHeader h;
  h.payload_bytes = 64;
  std::vector<u8> good;
  append_frame_header(good, h);

  auto bad = good;
  bad[0] ^= 0xff;  // magic
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  bad = good;
  bad[4] = 99;  // version
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  bad = good;
  bad[5] = 0;  // opcode below range
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  bad[5] = 200;  // opcode above range
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  // Anti-bomb: payload larger than the cap, including the u64 extremes.
  EXPECT_THROW(parse_frame_header(good, 63), Error);
  bad = good;
  for (int i = 16; i < 24; ++i) bad[i] = 0xff;  // payload_bytes = 2^64-1
  EXPECT_THROW(parse_frame_header(bad, kDefaultMaxPayload), Error);
  // Truncated header buffer.
  EXPECT_THROW(
      parse_frame_header(std::span<const u8>(good.data(), 23), kDefaultMaxPayload),
      Error);
}

TEST(Protocol, CompressRequestRoundTrip) {
  const auto data = test::smooth_signal(1000);
  CompressRequest req;
  req.bound = core::ErrorBound::relative(1e-3);
  req.deadline_ms = 250;
  req.data = data;
  std::vector<u8> payload;
  append_compress_request(payload, req);

  const CompressRequest back = decode_compress_request(payload);
  EXPECT_EQ(back.deadline_ms, 250u);
  EXPECT_EQ(back.bound.mode, req.bound.mode);
  EXPECT_EQ(back.bound.value, req.bound.value);
  ASSERT_EQ(back.data.size(), data.size());
  EXPECT_EQ(std::memcmp(back.data.data(), data.data(),
                        data.size() * sizeof(f32)),
            0);
}

TEST(Protocol, CompressRequestRejectsHostilePayloads) {
  const auto data = test::smooth_signal(64);
  CompressRequest req;
  req.bound = core::ErrorBound::absolute(1e-3);
  req.data = data;
  std::vector<u8> payload;
  append_compress_request(payload, req);

  // Truncated fixed part, truncated data, padded data.
  EXPECT_THROW(
      decode_compress_request(std::span<const u8>(payload.data(), 10)), Error);
  EXPECT_THROW(decode_compress_request(
                   std::span<const u8>(payload.data(), payload.size() - 4)),
               Error);
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW(decode_compress_request(padded), Error);

  // element_count lying about the payload, including the wrap-around
  // value that an unchecked `count * 4` would accept.
  auto lied = payload;
  for (int b = 0; b < 8; ++b) lied[16 + b] = 0xff;
  EXPECT_THROW(decode_compress_request(lied), Error);
  lied = payload;
  const u64 wrap = u64{1} << 62;  // *4 wraps to 0
  for (int b = 0; b < 8; ++b) {
    lied[16 + b] = static_cast<u8>((wrap >> (8 * b)) & 0xff);
  }
  EXPECT_THROW(decode_compress_request(lied), Error);

  // Non-finite / non-positive bounds.
  auto bad_bound = payload;
  const f64 nan = std::numeric_limits<f64>::quiet_NaN();
  u64 bits;
  std::memcpy(&bits, &nan, sizeof(bits));
  for (int b = 0; b < 8; ++b) {
    bad_bound[8 + b] = static_cast<u8>((bits >> (8 * b)) & 0xff);
  }
  EXPECT_THROW(decode_compress_request(bad_bound), Error);
}

TEST(Protocol, DecompressRequestAndResponseRoundTrip) {
  std::vector<u8> stream(333);
  Rng rng(3);
  for (auto& b : stream) b = static_cast<u8>(rng.next_u64());
  DecompressRequest req;
  req.deadline_ms = 42;
  req.stream = stream;
  std::vector<u8> payload;
  append_decompress_request(payload, req);
  const DecompressRequest back = decode_decompress_request(payload);
  EXPECT_EQ(back.deadline_ms, 42u);
  ASSERT_EQ(back.stream.size(), stream.size());
  EXPECT_EQ(std::memcmp(back.stream.data(), stream.data(), stream.size()), 0);

  // stream_bytes must match the remaining payload exactly.
  auto cut = payload;
  cut.pop_back();
  EXPECT_THROW(decode_decompress_request(cut), Error);
  auto padded = payload;
  padded.push_back(0);
  EXPECT_THROW(decode_decompress_request(padded), Error);

  const auto values = test::smooth_signal(100);
  std::vector<u8> resp;
  append_decompress_response(resp, values);
  std::vector<f32> decoded;
  decode_decompress_response(resp, decoded);
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(std::memcmp(decoded.data(), values.data(),
                        values.size() * sizeof(f32)),
            0);
  resp.pop_back();
  EXPECT_THROW(decode_decompress_response(resp, decoded), Error);
}

TEST(Protocol, HostileBytesNeverCrashTheDecoders) {
  // test_robustness-style fuzz: random mutations of valid frames, plus
  // pure junk, must throw ceresz::Error — never crash or read OOB.
  const auto data = test::smooth_signal(256);
  CompressRequest creq;
  creq.bound = core::ErrorBound::relative(1e-3);
  creq.data = data;
  std::vector<u8> compress_payload;
  append_compress_request(compress_payload, creq);

  Rng rng(1234);
  for (int trial = 0; trial < 400; ++trial) {
    auto fuzzed = compress_payload;
    const int flips = 1 + static_cast<int>(rng.next_below(16));
    for (int f = 0; f < flips; ++f) {
      fuzzed[rng.next_below(fuzzed.size())] ^=
          static_cast<u8>(1u << rng.next_below(8));
    }
    if (rng.next_below(4) == 0) fuzzed.resize(rng.next_below(fuzzed.size()));
    try {
      (void)decode_compress_request(fuzzed);
    } catch (const Error&) {
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<u8> junk(rng.next_below(256));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    try {
      (void)parse_frame_header(junk, kDefaultMaxPayload);
    } catch (const Error&) {
    }
    try {
      (void)decode_compress_request(junk);
    } catch (const Error&) {
    }
    try {
      (void)decode_decompress_request(junk);
    } catch (const Error&) {
    }
    try {
      std::vector<f32> out;
      decode_decompress_response(junk, out);
    } catch (const Error&) {
    }
  }
}

// --- BufferPool -------------------------------------------------------------

TEST(BufferPool, ReusesCapacityAndCountsHitsAndMisses) {
  obs::Counter hits, misses;
  BufferPool pool(4, &hits, &misses);
  const u8* grown = nullptr;
  {
    PooledBuffer buf = pool.acquire();
    EXPECT_EQ(misses.value(), 1u);  // empty pool: a miss
    buf->resize(1 << 16);
    grown = buf->data();
  }  // released back to the pool, capacity intact
  EXPECT_EQ(pool.pooled(), 1u);
  {
    PooledBuffer buf = pool.acquire();
    EXPECT_EQ(hits.value(), 1u);
    EXPECT_TRUE(buf->empty());  // size reset...
    EXPECT_GE(buf->capacity(), std::size_t{1} << 16);  // ...capacity kept
    EXPECT_EQ(buf->data(), grown) << "hit did not reuse the same allocation";
  }
}

TEST(BufferPool, FreeListIsBounded) {
  BufferPool pool(2);
  {
    std::vector<PooledBuffer> held;
    for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  }
  EXPECT_EQ(pool.pooled(), 2u);  // 3 of the 5 were freed, not pooled
}

// --- live server round trips ------------------------------------------------

ServerOptions test_server(u32 workers = 2) {
  ServerOptions opt;
  opt.port = 0;  // ephemeral
  opt.workers = workers;
  opt.engine.threads = 2;
  opt.engine.chunk_elems = 2048;
  return opt;
}

TEST(Service, RoundTripMatchesLocalEngineByteForByte) {
  ServiceServer server(test_server());
  server.start();

  CereszClient client;
  client.connect("127.0.0.1", server.port());
  EXPECT_GT(client.ping(), 0.0);

  const auto data = test::smooth_signal(10000);
  const auto bound = core::ErrorBound::relative(1e-3);
  const std::vector<u8> remote = client.compress(data, bound);

  engine::EngineOptions local_opt;
  local_opt.threads = 2;
  local_opt.chunk_elems = 2048;
  const engine::ParallelEngine local(local_opt);
  const auto reference = local.compress(data, bound);
  EXPECT_EQ(remote, reference.stream)
      << "service container differs from the CLI/engine path";

  const std::vector<f32> values = client.decompress(remote);
  ASSERT_EQ(values.size(), data.size());
  const auto local_back = local.decompress(reference.stream);
  EXPECT_EQ(std::memcmp(values.data(), local_back.values.data(),
                        values.size() * sizeof(f32)),
            0);

  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find(kMetricRequests), std::string::npos);
  EXPECT_NE(stats.find("ceresz_engine_chunks_total"), std::string::npos);

  server.stop();
  EXPECT_EQ(server.metrics().counter(kMetricCompressRequests).value(), 1u);
  EXPECT_EQ(server.metrics().counter(kMetricDecompressRequests).value(), 1u);
  EXPECT_EQ(server.metrics().counter(kMetricErrorResponses).value(), 0u);
}

TEST(Service, ReportsTheHostKernelTable) {
  std::ostringstream log_text;
  obs::LoggerOptions log_opt;
  log_opt.sink = &log_text;
  obs::Logger logger(log_opt);
  ServerOptions opt = test_server();
  opt.logger = &logger;
  ServiceServer server(opt);
  server.start();
  server.stop();

  const std::string isa = core::kernels().isa;
  EXPECT_NE(log_text.str().find("\"kernel_isa\":\"" + isa + "\""),
            std::string::npos)
      << log_text.str();
  const obs::MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.gauge_value(std::string(kMetricKernelIsa) + "{isa=\"" +
                             isa + "\"}"),
            1.0);
  const std::string prom = obs::to_prometheus(snap);
  EXPECT_NE(prom.find("# TYPE ceresz_codec_kernel_isa gauge\n"),
            std::string::npos);
  EXPECT_NE(prom.find("ceresz_codec_kernel_isa{isa=\"" + isa + "\"} 1\n"),
            std::string::npos)
      << prom;
}

TEST(Service, EmptyDataRoundTrip) {
  ServiceServer server(test_server());
  server.start();
  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<f32> empty;
  const auto stream = client.compress(empty, core::ErrorBound::absolute(1e-3));
  EXPECT_TRUE(client.decompress(stream).empty());
}

TEST(Service, ConcurrentClientsAllRoundTrip) {
  ServiceServer server(test_server(/*workers=*/4));
  server.start();
  const u16 port = server.port();

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      try {
        CereszClient client;
        client.connect("127.0.0.1", port);
        const auto data = test::smooth_signal(8192, 100 + c);
        for (int r = 0; r < 3; ++r) {
          const auto stream =
              client.compress(data, core::ErrorBound::relative(1e-3));
          const auto values = client.decompress(stream);
          if (values.size() != data.size() ||
              test::max_err(data, values) > 1e-2) {
            ++failures;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.metrics().counter(kMetricCompressRequests).value(), 12u);
  EXPECT_EQ(server.metrics().counter(kMetricConnections).value(), 4u);
}

TEST(Service, ShedsLoadWithBusyWhenInflightLimitIsReached) {
  // One worker, in-flight limit 1, and a fault plan that stalls the only
  // chunk's first attempt: while client A's request occupies the limit,
  // client B must be rejected with an immediate BUSY error frame.
  ServerOptions opt = test_server(/*workers=*/1);
  opt.max_inflight = 1;
  opt.engine.chunk_elems = 65536;  // one chunk
  opt.engine.faults.stall_chunk(0, /*attempts=*/1);
  opt.engine.faults.stall_ms = 400;
  ServiceServer server(std::move(opt));
  server.start();
  const u16 port = server.port();

  const auto data = test::smooth_signal(4096);
  std::atomic<bool> a_ok{false};
  std::thread slow([&] {
    CereszClient a;
    a.connect("127.0.0.1", port);
    const auto stream = a.compress(data, core::ErrorBound::absolute(1e-3));
    a_ok = !stream.empty();
  });

  // Give A's request time to be admitted and start stalling.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  CereszClient b;
  b.connect("127.0.0.1", port);
  try {
    (void)b.compress(data, core::ErrorBound::absolute(1e-3));
    FAIL() << "expected a BUSY rejection while the server was saturated";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kBusy);
  }
  slow.join();
  EXPECT_TRUE(a_ok.load()) << "the admitted request must still complete";
  EXPECT_GE(server.metrics().counter(kMetricBusyRejected).value(), 1u);

  // The rejected client's connection survives; once the stall is over it
  // can retry successfully — BUSY is backpressure, not a hang-up.
  const auto retry = b.compress(data, core::ErrorBound::absolute(1e-3));
  EXPECT_FALSE(retry.empty());
}

TEST(Service, DeadlineExpiryProducesAnErrorFrameNotAHang) {
  // Every attempt at the only chunk stalls for far longer than the
  // request deadline: the engine watchdog (clamped to the remaining
  // budget) cancels the attempts and the client gets DEADLINE_EXPIRED.
  ServerOptions opt = test_server(/*workers=*/1);
  opt.engine.chunk_elems = 65536;
  opt.engine.faults.stall_chunk(0, /*attempts=*/3);
  opt.engine.faults.stall_ms = 1000;
  ServiceServer server(std::move(opt));
  server.start();

  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const auto data = test::smooth_signal(4096);
  const u64 t0 = now_ns();
  try {
    (void)client.compress(data, core::ErrorBound::absolute(1e-3),
                          /*deadline_ms=*/60);
    FAIL() << "expected DEADLINE_EXPIRED";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kDeadlineExpired) << e.what();
  }
  // The rejection must come from the deadline machinery, not from the
  // stall running to completion (1 s x 3 attempts).
  EXPECT_LT(static_cast<f64>(now_ns() - t0) * 1e-9, 1.5);
  EXPECT_GE(server.metrics().counter(kMetricDeadlineExpired).value(), 1u);

  // The connection is still usable for an undeadlined request (attempt 3
  // of chunk 0 is past the fault plan, but a fresh request starts at
  // attempt 0 again — so give this one room to outlive one stall).
  const auto ok = client.compress(data, core::ErrorBound::absolute(1e-3));
  EXPECT_FALSE(ok.empty());
}

TEST(Service, DefaultDeadlineDoesNotDelayAFastRequest) {
  // A generous server-wide deadline costs nothing when the work is fast:
  // the response is written when the engine finishes, not on a timer.
  ServerOptions opt = test_server();
  opt.engine.chunk_elems = 65536;
  opt.default_deadline_ms = 2000;
  ServiceServer server(std::move(opt));
  server.start();

  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const auto data = test::smooth_signal(64 * 1024);
  const auto bound = core::ErrorBound::relative(1e-3);
  (void)client.compress(data, bound);  // warm-up

  u64 t0 = now_ns();
  const auto stream = client.compress(data, bound);
  EXPECT_LT(static_cast<f64>(now_ns() - t0) * 1e-6, 50.0);
  t0 = now_ns();
  const auto values = client.decompress(stream);
  EXPECT_LT(static_cast<f64>(now_ns() - t0) * 1e-6, 50.0);
  EXPECT_EQ(values.size(), data.size());
}

TEST(Service, CorruptStreamGetsTypedErrorAndConnectionSurvives) {
  ServiceServer server(test_server());
  server.start();
  CereszClient client;
  client.connect("127.0.0.1", server.port());

  std::vector<u8> junk(500);
  Rng rng(9);
  for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
  try {
    (void)client.decompress(junk);
    FAIL() << "expected CORRUPT_STREAM";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kCorruptStream) << e.what();
  }

  // Error frames are responses, not hang-ups: the same connection then
  // serves a valid round trip.
  const auto data = test::smooth_signal(2048);
  const auto stream = client.compress(data, core::ErrorBound::relative(1e-3));
  const auto values = client.decompress(stream);
  EXPECT_EQ(values.size(), data.size());
  EXPECT_EQ(server.metrics().counter(kMetricErrorResponses).value(), 1u);
}

TEST(Service, OversizedFrameIsRejectedAsMalformed) {
  ServerOptions opt = test_server();
  opt.max_frame_payload = 1 << 16;  // 64 KiB cap
  ServiceServer server(std::move(opt));
  server.start();

  CereszClient client;
  client.connect("127.0.0.1", server.port());
  const auto big = test::smooth_signal(1 << 15);  // 128 KiB of f32 payload
  try {
    (void)client.compress(big, core::ErrorBound::absolute(1e-3));
    FAIL() << "expected a MALFORMED rejection";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.status(), Status::kMalformed) << e.what();
  } catch (const Error&) {
    // Equally acceptable: the server hung up after the error frame and
    // the client saw the closed socket first.
  }
  EXPECT_GE(server.metrics().counter(kMetricMalformed).value(), 1u);
}

TEST(Service, GarbageBytesDoNotKillTheServer) {
  ServiceServer server(test_server());
  server.start();
  const u16 port = server.port();

  // Blast junk at the listener from several raw sockets. The readers
  // must answer with a malformed error frame and/or hang up — and the
  // server must keep serving well-formed clients afterwards.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    Socket raw = connect_to("127.0.0.1", port);
    std::vector<u8> junk(1 + rng.next_below(256));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    try {
      raw.write_all(junk);
      raw.shutdown_both();
    } catch (const Error&) {
      // The server may hang up mid-write; that is fine.
    }
  }

  CereszClient client;
  client.connect("127.0.0.1", port);
  const auto data = test::smooth_signal(2048);
  const auto stream = client.compress(data, core::ErrorBound::relative(1e-3));
  EXPECT_EQ(client.decompress(stream).size(), data.size());
}

TEST(Service, StopUnblocksIdleConnectionsAndIsIdempotent) {
  auto server = std::make_unique<ServiceServer>(test_server());
  server->start();
  CereszClient idle;
  idle.connect("127.0.0.1", server->port());  // connected, never sends
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->stop();
  server->stop();  // idempotent
  EXPECT_FALSE(server->running());
  server.reset();  // destructor after explicit stop is fine too
}

TEST(Service, StopWithRequestsInFlightDoesNotHang) {
  // A request is mid-execution (stalled chunk) when stop() lands. The
  // shutdown sequence lets workers drain what was queued, so stop()
  // must return promptly — after the stall, never wedged.
  ServerOptions opt = test_server(/*workers=*/1);
  opt.engine.chunk_elems = 65536;  // one chunk
  opt.engine.faults.stall_chunk(0, /*attempts=*/1);
  opt.engine.faults.stall_ms = 300;
  ServiceServer server(std::move(opt));
  server.start();
  const u16 port = server.port();

  const auto data = test::smooth_signal(4096);
  std::thread slow([&] {
    try {
      CereszClient a;
      a.connect("127.0.0.1", port);
      (void)a.compress(data, core::ErrorBound::absolute(1e-3));
    } catch (const Error&) {
      // stop() may hang up before the response; either way is fine —
      // the point is that nothing hangs or crashes.
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const u64 t0 = now_ns();
  server.stop();
  EXPECT_LT(static_cast<f64>(now_ns() - t0) * 1e-9, 5.0)
      << "stop() wedged behind an in-flight request";
  slow.join();
}

TEST(Service, RestartOnTheSamePortWorks) {
  // Stop must release the port completely: a new server (and a
  // restarted one) binds the same port and serves.
  const auto data = test::smooth_signal(2048);
  const auto bound = core::ErrorBound::relative(1e-3);
  u16 port = 0;
  {
    ServiceServer first(test_server());
    first.start();
    port = first.port();
    CereszClient client;
    client.connect("127.0.0.1", port);
    EXPECT_FALSE(client.compress(data, bound).empty());
    first.stop();
  }

  ServerOptions opt = test_server();
  opt.port = port;  // the exact port the first server just released
  ServiceServer second(std::move(opt));
  second.start();
  EXPECT_EQ(second.port(), port);
  CereszClient client;
  client.connect("127.0.0.1", port);
  EXPECT_FALSE(client.compress(data, bound).empty());
  second.stop();

  // Same OBJECT restarted: start/stop/start on one ServiceServer.
  second.start();
  CereszClient again;
  again.connect("127.0.0.1", second.port());
  EXPECT_FALSE(again.compress(data, bound).empty());
  second.stop();
}

}  // namespace
}  // namespace ceresz::net

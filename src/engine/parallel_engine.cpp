#include "engine/parallel_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "common/checksum.h"
#include "common/error.h"
#include "common/timer.h"
#include "engine/chunk_runner.h"
#include "engine/thread_pool.h"
#include "io/chunk_container.h"

namespace ceresz::engine {

namespace {

/// Per-chunk compression output, later assembled in chunk order.
struct ChunkOutput {
  std::vector<u8> bytes;
  core::StreamStats stats;
  u32 crc = 0;
};

/// Handles into the per-run metrics registry — the run's single write
/// path for every scalar that EngineStats later reports (EngineStats is
/// materialized from the registry snapshot, never updated directly).
struct EngineMetrics {
  obs::Counter& chunks;
  obs::Counter& uncompressed_bytes;
  obs::Counter& compressed_bytes;
  obs::Counter& retries;
  obs::Counter& timeouts;
  obs::Counter& worker_crashes;
  obs::Counter& fallback_chunks;
  obs::Counter& quarantined;
  obs::Gauge& threads;
  obs::Gauge& queue_high_water;
  obs::Gauge& wall_seconds;
  obs::Gauge& busy_seconds;
  obs::Histogram& chunk_seconds;

  explicit EngineMetrics(obs::MetricsRegistry& reg)
      : chunks(reg.counter(kMetricChunks)),
        uncompressed_bytes(reg.counter(kMetricUncompressedBytes)),
        compressed_bytes(reg.counter(kMetricCompressedBytes)),
        retries(reg.counter(kMetricRetries)),
        timeouts(reg.counter(kMetricTimeouts)),
        worker_crashes(reg.counter(kMetricWorkerCrashes)),
        fallback_chunks(reg.counter(kMetricFallbackChunks)),
        quarantined(reg.counter(kMetricQuarantined)),
        threads(reg.gauge(kMetricThreads)),
        queue_high_water(reg.gauge(kMetricQueueHighWater)),
        wall_seconds(reg.gauge(kMetricWallSeconds)),
        busy_seconds(reg.gauge(kMetricBusySeconds)),
        chunk_seconds(reg.histogram(
            kMetricChunkSeconds,
            obs::MetricsRegistry::default_seconds_buckets())) {}

  /// Fold a ChunkRunner report into the run's counters.
  void merge(const RunReport& report) {
    retries.add(report.retries);
    timeouts.add(report.timeouts);
    worker_crashes.add(report.worker_crashes);
    fallback_chunks.add(report.fallback_chunks);
  }

  /// End-of-run gauges, set just before the snapshot is taken. Only the
  /// run's own tasks count, whatever else shares the pool.
  void finish(u32 thread_count, const TaskGroup& tasks, f64 wall) {
    threads.set(thread_count);
    queue_high_water.set(static_cast<f64>(tasks.queue_high_water()));
    wall_seconds.set(wall);
    f64 busy = tasks.inline_busy_seconds();
    for (f64 s : tasks.busy_seconds()) busy += s;
    busy_seconds.set(busy);
  }
};

/// Apply the injected fault (if any) for this attempt. kStall sleeps in
/// cancellable 1 ms ticks; if the deadline passes mid-stall the attempt
/// aborts with ChunkTimeout, otherwise it proceeds with the real work
/// (modeling a worker that was slow, not broken).
void maybe_inject(const WorkerFaultPlan& plan, u64 chunk, u32 attempt,
                  const CancelToken& cancel) {
  switch (plan.fault(chunk, attempt)) {
    case WorkerFault::kNone:
      return;
    case WorkerFault::kThrow:
      throw Error("injected transient fault at chunk " +
                  std::to_string(chunk) + " attempt " +
                  std::to_string(attempt));
    case WorkerFault::kCrash:
      throw WorkerCrash{};
    case WorkerFault::kStall: {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(plan.stall_ms);
      while (std::chrono::steady_clock::now() < until) {
        if (cancel.cancelled()) {
          throw ChunkTimeout("injected stall at chunk " +
                             std::to_string(chunk) +
                             " was cancelled at its deadline");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return;
    }
  }
}

}  // namespace

void declare_engine_metrics(obs::MetricsRegistry& reg) {
  EngineMetrics declared(reg);
  (void)declared;
}

ParallelEngine::ParallelEngine(EngineOptions options)
    : options_(options), block_codec_(options.codec) {
  const u32 L = block_codec_.config().block_size;
  CERESZ_CHECK(options_.chunk_elems > 0 && options_.chunk_elems % L == 0,
               "ParallelEngine: chunk_elems must be a positive multiple of "
               "the block size");
  timer_ = std::make_unique<DeadlineTimer>();
  pool_ = std::make_unique<ThreadPool>(resolved_threads(),
                                       options_.queue_capacity,
                                       options_.tracer);
}

u32 ParallelEngine::resolved_threads() const {
  if (options_.threads > 0) return options_.threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

EngineResult ParallelEngine::compress(std::span<const f32> data,
                                      core::ErrorBound bound,
                                      Deadline deadline) const {
  const core::CodecConfig& cfg = block_codec_.config();
  const u32 L = cfg.block_size;
  const u64 n = data.size();
  const u64 C = options_.chunk_elems;
  const u64 n_chunks = (n + C - 1) / C;

  WallTimer timer;
  obs::Tracer* const tracer = options_.tracer;
  obs::MetricsRegistry reg;
  EngineMetrics em(reg);
  obs::SpanGuard run_span(tracer, "engine.compress", "engine", "chunks",
                          static_cast<i64>(n_chunks), "elements",
                          static_cast<i64>(n));
  const u32 threads = resolved_threads();
  pool_->respawn_crashed();
  TaskGroup tasks(*pool_);

  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto record_error = [&] {
    std::lock_guard lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
  };

  // Resolve the bound. A REL bound needs the global value range; min/max
  // reduce exactly and order-independently, so computing them per-slice on
  // the pool keeps eps (and therefore every payload byte) identical to the
  // single-threaded StreamCodec result.
  f64 eps;
  if (bound.mode == core::ErrorBound::Mode::kAbsolute || n == 0) {
    eps = bound.resolve(0.0);
  } else {
    obs::SpanGuard minmax_span(tracer, "engine.minmax", "engine");
    std::vector<f64> slice_min(n_chunks), slice_max(n_chunks);
    for (u64 c = 0; c < n_chunks; ++c) {
      tasks.submit([&, c] {
        try {
          const u64 begin = c * C;
          const u64 end = std::min(n, begin + C);
          const core::ValueBounds b = core::value_bounds(
              data.subspan(begin, end - begin), block_codec_.table());
          slice_min[c] = b.lo;
          slice_max[c] = b.hi;
        } catch (...) {
          record_error();
        }
      });
    }
    tasks.wait();
    if (first_error) std::rethrow_exception(first_error);
    f64 lo = slice_min[0], hi = slice_max[0];
    for (u64 c = 1; c < n_chunks; ++c) {
      lo = std::min(lo, slice_min[c]);
      hi = std::max(hi, slice_max[c]);
    }
    eps = bound.resolve(hi - lo);
  }

  // Compress chunks. Each attempt builds a fresh ChunkOutput and installs
  // it only on success, so a failed or retried attempt never leaves a
  // half-written slot; the payload bytes depend on chunk boundaries alone
  // — never on scheduling, retries, or which worker ran the chunk.
  std::vector<ChunkOutput> outs(n_chunks);
  ChunkRunner runner(tasks, options_.retry, timer_.get());
  const RunReport report = runner.run(
      n_chunks, [&](u64 c, u32 attempt, const CancelToken& cancel) {
        const u64 attempt_start = now_ns();
        obs::SpanGuard span(tracer, "chunk.compress", "engine", "chunk",
                            static_cast<i64>(c), "attempt",
                            static_cast<i64>(attempt));
        if (attempt > 0 && tracer) {
          tracer->instant("chunk.retry", "engine", "chunk",
                          static_cast<i64>(c));
        }
        try {
          maybe_inject(options_.faults, c, attempt, cancel);
          const u64 begin = c * C;
          const u64 end = std::min(n, begin + C);
          ChunkOutput o;
          bool finished = false;
          try {
            finished = block_codec_.encode_blocks(
                data.subspan(begin, end - begin), eps, o.bytes, o.stats,
                [&] { return cancel.cancelled(); });
          } catch (const Error& e) {
            // The codec rejects the input itself (NaN or ±Inf, or a
            // quantized value or difference past 32 bits at this ε): no
            // retry encodes it.
            throw PermanentChunkError(e.what());
          }
          if (!finished) {
            throw ChunkTimeout("chunk " + std::to_string(c) +
                               " exceeded its compression deadline");
          }
          o.crc = crc32c(o.bytes);
          outs[c] = std::move(o);
        } catch (const ChunkTimeout&) {
          if (tracer) {
            tracer->instant("chunk.timeout", "engine", "chunk",
                            static_cast<i64>(c));
          }
          throw;
        }
        em.chunk_seconds.observe(static_cast<f64>(now_ns() - attempt_start) *
                                 1e-9);
      },
      deadline);
  // Compression has no lenient mode: the caller asked for a complete
  // container, and a chunk that failed means there is none to give. A
  // permanent failure is the input's fault and keeps its type.
  if (!report.all_succeeded()) {
    const ChunkFailure& f = report.failed.front();
    const std::string message =
        "ParallelEngine: chunk " + std::to_string(f.chunk) + " failed after " +
        std::to_string(f.attempts) + " attempt(s): " + f.message;
    if (f.permanent) throw PermanentChunkError(message);
    throw Error(message);
  }

  // Assemble the container: header + chunk table, then payloads in order.
  io::ChunkedHeader header;
  header.codec_header_bytes = cfg.header_bytes;
  header.block_size = L;
  header.chunk_count = static_cast<u32>(n_chunks);
  header.element_count = n;
  header.chunk_elems = C;
  header.eps_abs = eps;

  std::vector<io::ChunkEntry> entries(n_chunks);
  u64 offset = header.payload_start();
  for (u64 c = 0; c < n_chunks; ++c) {
    entries[c].offset = offset;
    entries[c].compressed_bytes = outs[c].bytes.size();
    entries[c].element_count = std::min(n - c * C, C);
    entries[c].crc32c = outs[c].crc;
    offset += outs[c].bytes.size();
  }

  EngineResult result;
  result.eps_abs = eps;
  result.element_count = n;
  result.stream.reserve(offset);
  {
    obs::SpanGuard assemble_span(tracer, "engine.assemble", "engine");
    io::write_container_prefix(result.stream, header, entries);
    core::StreamStats stream_stats;
    for (const ChunkOutput& o : outs) {
      result.stream.insert(result.stream.end(), o.bytes.begin(),
                           o.bytes.end());
      stream_stats.merge(o.stats);
    }
    result.stats.stream = stream_stats;
  }

  em.chunks.add(n_chunks);
  em.uncompressed_bytes.add(n * sizeof(f32));
  em.compressed_bytes.add(result.stream.size());
  em.merge(report);
  em.finish(threads, tasks, timer.seconds());

  const obs::MetricsSnapshot snap = reg.snapshot();
  const core::StreamStats stream_stats = result.stats.stream;
  result.stats = EngineStats::from_snapshot(snap);
  result.stats.stream = stream_stats;
  result.stats.worker_busy_seconds = tasks.busy_seconds();
  result.stats.inline_busy_seconds = tasks.inline_busy_seconds();
  if (options_.metrics) options_.metrics->accumulate(snap);
  return result;
}

CheckedContainer ParallelEngine::check(std::span<const u8> stream) const {
  io::ParsedContainer parsed = io::parse_container(stream);
  core::check_container_config(parsed.header, block_codec_.config());
  return CheckedContainer(this, stream, std::move(parsed));
}

DecompressResult ParallelEngine::decompress(std::span<const u8> stream,
                                            Deadline deadline) const {
  WallTimer timer;
  const CheckedContainer container = check(stream);
  const u64 n = container.element_count();
  const u64 C = container.parsed_.header.chunk_elems;

  // The decode tasks are the values' only real writers. The vector grows
  // to cover chunk c just before chunk c is dispatched, so its value-init
  // (and the first touch of fresh pages) overlaps the decoding of earlier
  // chunks instead of preceding all of it. Growing within the reserved
  // capacity never reallocates: `out` stays valid for every task.
  DecompressResult result;
  result.values.reserve(n);
  f32* const out = result.values.data();
  static_cast<DecodeReport&>(result) = decode_chunks(
      container, out,
      [&](u64 c) { result.values.resize(std::min(n, (c + 1) * C)); },
      deadline, timer);
  return result;
}

DecodeReport ParallelEngine::decompress_into(
    const CheckedContainer& container, std::span<f32> out,
    Deadline deadline) const {
  WallTimer timer;
  CERESZ_CHECK(container.checker_ == this,
               "ParallelEngine::decompress_into: the container was checked "
               "by another engine");
  if (out.size() != container.element_count()) {
    throw Error("ParallelEngine::decompress_into: the output holds " +
                std::to_string(out.size()) + " values but the stream has " +
                std::to_string(container.element_count()));
  }
  return decode_chunks(container, out.data(), {}, deadline, timer);
}

DecodeReport ParallelEngine::decompress_into(std::span<const u8> stream,
                                             std::span<f32> out,
                                             Deadline deadline) const {
  return decompress_into(check(stream), out, deadline);
}

DecodeReport ParallelEngine::decode_chunks(
    const CheckedContainer& container, f32* out,
    const ChunkRunner::PrepareFn& prepare, Deadline deadline,
    const WallTimer& timer) const {
  const std::span<const u8> stream = container.stream_;
  const io::ParsedContainer& parsed = container.parsed_;
  obs::Tracer* const tracer = options_.tracer;
  obs::MetricsRegistry reg;
  EngineMetrics em(reg);
  const io::ChunkedHeader& h = parsed.header;
  const u64 n = h.element_count;

  obs::SpanGuard run_span(tracer, "engine.decompress", "engine", "chunks",
                          static_cast<i64>(parsed.entries.size()), "elements",
                          static_cast<i64>(n));

  DecodeReport result;
  const u32 threads = resolved_threads();
  pool_->respawn_crashed();
  TaskGroup tasks(*pool_);

  // Each attempt decodes straight into its disjoint output range. Corrupt
  // data (CRC mismatch, undecodable record) throws PermanentChunkError —
  // retrying cannot fix bytes — while injected/transient faults and
  // timeouts go through the ChunkRunner retry ladder. A chunk that still
  // fails is quarantined below: zero-filled and reported in lenient mode,
  // fatal in strict mode.
  ChunkRunner runner(tasks, options_.retry, timer_.get());
  const RunReport report = runner.run(
      parsed.entries.size(),
      [&](u64 c, u32 attempt, const CancelToken& cancel) {
        const u64 attempt_start = now_ns();
        obs::SpanGuard span(tracer, "chunk.decompress", "engine", "chunk",
                            static_cast<i64>(c), "attempt",
                            static_cast<i64>(attempt));
        if (attempt > 0 && tracer) {
          tracer->instant("chunk.retry", "engine", "chunk",
                          static_cast<i64>(c));
        }
        maybe_inject(options_.faults, c, attempt, cancel);
        const std::span<f32> chunk_out(out + c * h.chunk_elems,
                                       parsed.entries[c].element_count);
        bool finished = false;
        try {
          finished = core::decode_chunk(block_codec_, stream, parsed, c,
                                        chunk_out,
                                        [&] { return cancel.cancelled(); });
        } catch (const std::exception& ex) {
          throw PermanentChunkError(std::string("ParallelEngine: ") +
                                    ex.what());
        }
        if (!finished) {
          // A timeout is transient, not data corruption.
          if (tracer) {
            tracer->instant("chunk.timeout", "engine", "chunk",
                            static_cast<i64>(c));
          }
          throw ChunkTimeout("chunk " + std::to_string(c) +
                             " exceeded its decompression deadline");
        }
        em.chunk_seconds.observe(static_cast<f64>(now_ns() - attempt_start) *
                                 1e-9);
      },
      deadline, prepare);

  for (const ChunkFailure& f : report.failed) {
    if (!options_.lenient) throw Error(f.message);
    const io::ChunkEntry& e = parsed.entries[f.chunk];
    const u64 begin = f.chunk * h.chunk_elems;
    std::fill(out + begin, out + begin + e.element_count, 0.0f);
    result.corrupt_chunks.push_back(f.chunk);
    em.quarantined.add(1);
    if (tracer) {
      tracer->instant("chunk.quarantined", "engine", "chunk",
                      static_cast<i64>(f.chunk));
    }
  }

  em.chunks.add(parsed.entries.size());
  em.uncompressed_bytes.add(n * sizeof(f32));
  em.compressed_bytes.add(stream.size());
  em.merge(report);
  em.finish(threads, tasks, timer.seconds());

  const obs::MetricsSnapshot snap = reg.snapshot();
  result.stats = EngineStats::from_snapshot(snap);
  result.stats.worker_busy_seconds = tasks.busy_seconds();
  result.stats.inline_busy_seconds = tasks.inline_busy_seconds();
  if (options_.metrics) options_.metrics->accumulate(snap);
  return result;
}

}  // namespace ceresz::engine

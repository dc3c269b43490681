// Parallel chunked compression engine.
//
// Splits input into fixed-size chunks (a multiple of the block size, so
// each chunk's payload is bit-identical to the corresponding slice of the
// single-stream core::StreamCodec output), compresses/decompresses them on
// the engine's worker pool, and frames the results in the
// self-describing chunked container (io/chunk_container.h) with a chunk
// table and per-chunk CRC32C. Output bytes are deterministic: chunk
// boundaries depend only on chunk_elems, never on the thread count.
//
// Robustness: decompression verifies every chunk's CRC before decoding.
// In strict mode (default) a corrupt chunk throws an Error naming the
// chunk; in lenient mode the chunk's element range is zero-filled, its
// index is reported in DecompressResult::corrupt_chunks, and every other
// chunk is still recovered.
//
// Runtime: the engine is long-lived. It builds one ThreadPool at
// construction and every compress()/decompress() call — concurrent ones
// included — runs on it. A call waits for its own tasks only (a
// TaskGroup), and the calling thread runs queued work while it waits, so
// a one-chunk call usually never leaves the caller. Per-attempt deadlines
// share one timer thread, started by the first run that has a deadline.
// docs/engine.md ("Engine runtime") has the details.
//
// Fault tolerance: chunk work runs through a ChunkRunner — transient
// worker failures are retried with capped exponential backoff, stalled
// attempts are cancelled at their deadline, crashed workers shrink the
// pool without aborting the run (and are replaced before the next run),
// and a fully collapsed pool degrades to inline execution on the caller.
// Output bytes are unchanged by any recovered fault; see
// docs/robustness.md.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/block_codec.h"
#include "core/config.h"
#include "core/stream_codec.h"
#include "engine/chunk_runner.h"
#include "engine/deadline_timer.h"
#include "engine/engine_stats.h"
#include "engine/fault_injection.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ceresz::engine {

struct EngineOptions {
  /// Worker threads. 0 picks std::thread::hardware_concurrency().
  u32 threads = 0;

  /// Elements per chunk; must be a positive multiple of the codec's block
  /// size. 64 Ki floats (256 KiB) keeps per-chunk overhead negligible
  /// while giving even a small input enough chunks to spread over workers.
  u64 chunk_elems = u64{64} * 1024;

  /// Bounded work-queue capacity; 0 picks 2 * threads.
  u64 queue_capacity = 0;

  /// Decompression policy for chunks whose CRC (or record structure) is
  /// bad: false = throw naming the chunk, true = zero-fill just that
  /// chunk and keep going.
  bool lenient = false;

  /// Retry/backoff/deadline policy applied to every chunk attempt (see
  /// chunk_runner.h). Transient failures are retried up to
  /// `retry.max_attempts` times; data corruption is never retried.
  RetryPolicy retry;

  /// Injected worker faults, keyed by (chunk, attempt) — empty in
  /// production; chaos tests and the degraded-mode benchmark fill it in.
  WorkerFaultPlan faults;

  /// Observability (both nullable, both borrowed — they must outlive
  /// the engine's runs). `tracer` records per-chunk spans, worker busy
  /// spans, and the queue-depth counter track. `metrics` receives the
  /// run's counters on completion (accumulated, so one registry can
  /// serve many runs); the engine's own EngineStats view works without
  /// it. With both null the instrumentation cost is one pointer test
  /// per site.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  core::CodecConfig codec;
};

/// Result of ParallelEngine::compress.
struct EngineResult {
  std::vector<u8> stream;  ///< chunked container (header + table + payloads)
  f64 eps_abs = 0.0;
  u64 element_count = 0;
  EngineStats stats;

  f64 compression_ratio() const {
    return stream.empty() ? 0.0
                          : static_cast<f64>(element_count * sizeof(f32)) /
                                static_cast<f64>(stream.size());
  }
};

/// Result of ParallelEngine::decompress.
struct DecompressResult {
  std::vector<f32> values;
  /// Chunk indices that failed CRC/decoding and were zero-filled
  /// (non-empty only in lenient mode).
  std::vector<u64> corrupt_chunks;
  EngineStats stats;
};

class ParallelEngine {
 public:
  /// Starts the engine's worker pool (resolved_threads() workers).
  explicit ParallelEngine(EngineOptions options = {});

  const EngineOptions& options() const { return options_; }

  /// Number of workers in the engine's pool.
  u32 resolved_threads() const;

  /// Compress `data` under `bound` into a chunked container. Thread-safe:
  /// concurrent calls share the engine's pool. With a `deadline`, no
  /// chunk attempt outlives it (on top of EngineOptions::retry's
  /// per-attempt deadline_ms); a run that cannot finish in time throws.
  EngineResult compress(std::span<const f32> data, core::ErrorBound bound,
                        Deadline deadline = {}) const;

  /// Decompress a chunked container produced by compress(). Throws on
  /// structural corruption (header/table), and on chunk corruption in
  /// strict mode; see EngineOptions::lenient. `deadline` as for
  /// compress(); in lenient mode a timed-out chunk is zero-filled.
  DecompressResult decompress(std::span<const u8> stream,
                              Deadline deadline = {}) const;

  /// Cheap magic sniff: true if `stream` is a chunked container (vs the
  /// legacy single-stream "CSZ1" format).
  static bool is_chunked_stream(std::span<const u8> stream);

 private:
  EngineOptions options_;
  core::BlockCodec block_codec_;
  std::unique_ptr<DeadlineTimer> timer_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ceresz::engine

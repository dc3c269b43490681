#include "engine/parallel_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/checksum.h"
#include "common/error.h"
#include "core/stream_codec.h"
#include "engine/bounded_queue.h"
#include "engine/fault_injection.h"
#include "engine/thread_pool.h"
#include "io/chunk_container.h"
#include "obs/trace.h"
#include "test_util.h"

namespace ceresz::engine {
namespace {

EngineOptions small_chunks(u32 threads, u64 chunk_elems = 2048,
                           bool lenient = false) {
  EngineOptions opt;
  opt.threads = threads;
  opt.chunk_elems = chunk_elems;
  opt.lenient = lenient;
  return opt;
}

// --- container parity with the single-stream codec -------------------------

TEST(ParallelEngine, ChunkPayloadsBitIdenticalToStreamCodec) {
  const auto data = test::smooth_signal(100000);
  const core::StreamCodec codec;
  const auto single = codec.compress(data, core::ErrorBound::relative(1e-3));

  const ParallelEngine eng(small_chunks(4));
  const auto chunked = eng.compress(data, core::ErrorBound::relative(1e-3));

  EXPECT_EQ(chunked.eps_abs, single.eps_abs);
  const auto parsed = io::parse_container(chunked.stream);
  ASSERT_FALSE(parsed.entries.empty());

  // The concatenated chunk payloads must equal the single stream's one
  // payload.
  const auto single_parsed = io::parse_container(single.stream);
  ASSERT_EQ(single_parsed.entries.size(), 1u);
  std::span<const u8> body(single.stream.data() + single_parsed.entries[0].offset,
                           single_parsed.entries[0].compressed_bytes);
  std::span<const u8> payloads(chunked.stream.data() + parsed.entries[0].offset,
                               chunked.stream.size() - parsed.entries[0].offset);
  ASSERT_EQ(payloads.size(), body.size());
  EXPECT_TRUE(std::equal(payloads.begin(), payloads.end(), body.begin()));
}

TEST(ParallelEngine, MergedStatsMatchStreamCodec) {
  const auto data = test::sparse_signal(32 * 3000, 17, 0.02);
  const core::StreamCodec codec;
  const auto single = codec.compress(data, core::ErrorBound::absolute(1e-1));
  const ParallelEngine eng(small_chunks(3, 1024));
  const auto chunked = eng.compress(data, core::ErrorBound::absolute(1e-1));

  const auto& a = chunked.stats.stream;
  const auto& b = single.stats;
  EXPECT_EQ(a.total_blocks, b.total_blocks);
  EXPECT_EQ(a.zero_blocks, b.zero_blocks);
  EXPECT_EQ(a.constant_blocks, b.constant_blocks);
  EXPECT_EQ(a.max_fixed_length, b.max_fixed_length);
  EXPECT_DOUBLE_EQ(a.mean_fixed_length, b.mean_fixed_length);
  EXPECT_EQ(a.fl_histogram, b.fl_histogram);
}

// --- round trips ------------------------------------------------------------

TEST(ParallelEngine, RoundTripOddSizes) {
  const ParallelEngine eng(small_chunks(3, 256));
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 255u, 256u, 257u, 1000u,
                        4096u, 4097u}) {
    const auto data = test::smooth_signal(n);
    const auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
    EXPECT_EQ(result.element_count, n);
    const auto back = eng.decompress(result.stream);
    ASSERT_EQ(back.values.size(), n) << "n=" << n;
    EXPECT_TRUE(back.corrupt_chunks.empty());
    EXPECT_LE(test::max_err(data, back.values), 1e-3) << "n=" << n;
  }
}

TEST(ParallelEngine, EmptyInputRoundTrip) {
  const ParallelEngine eng(small_chunks(2));
  const std::vector<f32> empty;
  const auto result = eng.compress(empty, core::ErrorBound::relative(1e-3));
  EXPECT_EQ(result.element_count, 0u);
  const auto back = eng.decompress(result.stream);
  EXPECT_TRUE(back.values.empty());
  EXPECT_EQ(back.stats.chunks, 0u);
}

TEST(ParallelEngine, DeterministicAcrossThreadCounts) {
  const auto data = test::random_signal(50000, 5, -50.0, 50.0);
  std::vector<u8> reference;
  for (u32 threads : {1u, 2u, 5u, 8u}) {
    const ParallelEngine eng(small_chunks(threads, 4096));
    const auto result = eng.compress(data, core::ErrorBound::relative(1e-3));
    if (reference.empty()) {
      reference = result.stream;
    } else {
      EXPECT_EQ(result.stream, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelEngine, RelativeBoundMatchesStreamCodecEps) {
  // The parallel min/max reduction must resolve REL bounds to the exact
  // same eps as the single-threaded Welford pass.
  auto data = test::smooth_signal(10000);
  for (auto& v : data) v *= 321.0f;
  const core::StreamCodec codec;
  const auto single = codec.compress(data, core::ErrorBound::relative(1e-4));
  const ParallelEngine eng(small_chunks(4, 512));
  const auto chunked = eng.compress(data, core::ErrorBound::relative(1e-4));
  EXPECT_EQ(chunked.eps_abs, single.eps_abs);
  EXPECT_EQ(chunked.stream,
            eng.compress(data, core::ErrorBound::absolute(single.eps_abs))
                .stream);
}

TEST(ParallelEngine, UnencodableInputFailsAfterOneAttempt) {
  // A NaN is the input's fault, not a transient one: its chunk fails on
  // the first attempt, with no retry ladder, and the engine throws the
  // typed PermanentChunkError naming the attempts actually made.
  auto data = test::smooth_signal(8 * 1024);
  data[5 * 1024 + 17] = std::numeric_limits<f32>::quiet_NaN();
  for (const core::ErrorBound bound : {core::ErrorBound::relative(1e-3),
                                       core::ErrorBound::absolute(1e-3)}) {
    obs::Tracer tracer;
    {
      // The engine (and its pool) is gone before the trace is read.
      EngineOptions opt = small_chunks(2, 1024);
      opt.tracer = &tracer;
      const ParallelEngine eng(opt);
      try {
        eng.compress(data, bound);
        FAIL() << "NaN input was accepted";
      } catch (const PermanentChunkError& e) {
        EXPECT_NE(
            std::string(e.what()).find("chunk 5 failed after 1 attempt(s)"),
            std::string::npos)
            << e.what();
      }
    }
    int attempts = 0;
    for (const obs::TraceEvent& ev : tracer.snapshot_events()) {
      if (std::string(ev.name) == "chunk.compress" && ev.arg1 == 5) ++attempts;
      EXPECT_NE(std::string(ev.name), "chunk.retry");
    }
    EXPECT_EQ(attempts, 1);
  }
}

// --- corruption handling ----------------------------------------------------

// Flip one payload byte of the given chunk; returns the flipped offset.
std::size_t corrupt_chunk(std::vector<u8>& stream, u64 chunk) {
  const auto parsed = io::parse_container(stream);
  const auto& e = parsed.entries[chunk];
  const std::size_t victim = e.offset + e.compressed_bytes / 2;
  stream[victim] ^= 0x5a;
  return victim;
}

TEST(ParallelEngine, StrictModeThrowsNamingTheCorruptChunk) {
  const auto data = test::smooth_signal(10000);
  const ParallelEngine eng(small_chunks(4, 1024));
  auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
  corrupt_chunk(result.stream, 3);
  try {
    eng.decompress(result.stream);
    FAIL() << "corrupt chunk was not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk 3"), std::string::npos)
        << "error does not localize the corruption: " << e.what();
  }
}

TEST(ParallelEngine, LenientModeZeroFillsOnlyTheCorruptChunk) {
  const auto data = test::smooth_signal(10000);
  const u64 chunk_elems = 1024;
  const ParallelEngine strict(small_chunks(4, chunk_elems));
  auto result = strict.compress(data, core::ErrorBound::absolute(1e-3));
  corrupt_chunk(result.stream, 3);

  const ParallelEngine lenient(small_chunks(4, chunk_elems, true));
  const auto back = lenient.decompress(result.stream);
  ASSERT_EQ(back.values.size(), data.size());
  ASSERT_EQ(back.corrupt_chunks, (std::vector<u64>{3}));

  for (std::size_t i = 0; i < data.size(); ++i) {
    const u64 chunk = i / chunk_elems;
    if (chunk == 3) {
      EXPECT_EQ(back.values[i], 0.0f) << "i=" << i;
    } else {
      EXPECT_LE(std::fabs(static_cast<f64>(data[i]) - back.values[i]), 1e-3)
          << "i=" << i;
    }
  }
}

TEST(ParallelEngine, EveryChunkIsIndividuallyProtected) {
  const auto data = test::smooth_signal(4096);
  const ParallelEngine eng(small_chunks(2, 1024));
  const auto clean = eng.compress(data, core::ErrorBound::absolute(1e-3));
  const auto parsed = io::parse_container(clean.stream);
  for (u64 c = 0; c < parsed.entries.size(); ++c) {
    auto stream = clean.stream;
    corrupt_chunk(stream, c);
    EXPECT_THROW(eng.decompress(stream), Error) << "chunk " << c;
  }
}

TEST(ParallelEngine, HeaderAndTableCorruptionDetected) {
  const auto data = test::smooth_signal(4096);
  const ParallelEngine eng(small_chunks(2, 1024));
  const auto clean = eng.compress(data, core::ErrorBound::absolute(1e-3));
  // Header field (element count).
  auto bad_header = clean.stream;
  bad_header[17] ^= 0xff;
  EXPECT_THROW(eng.decompress(bad_header), Error);
  // Chunk table entry (first chunk's CRC field).
  auto bad_table = clean.stream;
  bad_table[io::ChunkedHeader::kHeaderBytes + 24] ^= 0xff;
  EXPECT_THROW(eng.decompress(bad_table), Error);
  // Truncation.
  auto cut = clean.stream;
  cut.resize(cut.size() - 1);
  EXPECT_THROW(eng.decompress(cut), Error);
}

// --- hostile (crafted) container inputs ------------------------------------
// These streams carry *valid* header and table CRCs — the tampering happens
// before the CRCs are recomputed — so only the semantic validation in
// parse_container stands between them and the decoder.

void patch_u64(std::vector<u8>& s, std::size_t off, u64 v) {
  for (int b = 0; b < 8; ++b) s[off + b] = static_cast<u8>((v >> (8 * b)) & 0xff);
}

void patch_u32(std::vector<u8>& s, std::size_t off, u32 v) {
  for (int b = 0; b < 4; ++b) s[off + b] = static_cast<u8>((v >> (8 * b)) & 0xff);
}

// Recompute the header and chunk-table CRCs after tampering with fields.
void reseal(std::vector<u8>& s) {
  patch_u32(s, 44, crc32c(std::span<const u8>(s.data(), 44)));
  u32 chunk_count = 0;
  for (int b = 0; b < 4; ++b) chunk_count |= static_cast<u32>(s[12 + b]) << (8 * b);
  const std::size_t entry_bytes =
      static_cast<std::size_t>(chunk_count) * io::ChunkedHeader::kEntryBytes;
  patch_u32(s, io::ChunkedHeader::kHeaderBytes + entry_bytes,
            crc32c(std::span<const u8>(s.data() + io::ChunkedHeader::kHeaderBytes,
                                       entry_bytes)));
}

TEST(ParallelEngine, RejectsElementCountOverflowInChunkTable) {
  // Two chunks whose element counts wrap u64 back to the true total. With
  // unchecked accumulation this passes the sum check and turns into an
  // out-of-bounds write in decompress.
  const auto data = test::smooth_signal(2048);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  const auto parsed = io::parse_container(stream);
  ASSERT_EQ(parsed.entries.size(), 2u);
  const u64 huge = u64(1) << 63;
  patch_u64(stream, 24, huge);  // header chunk_elems
  const std::size_t t = io::ChunkedHeader::kHeaderBytes;
  patch_u64(stream, t + 16, huge);  // entry 0 element_count
  patch_u64(stream, t + io::ChunkedHeader::kEntryBytes + 16,
            2048 - 2 * huge);  // entry 1: wraps the sum back to 2048
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
  EXPECT_THROW(eng.decompress(stream), Error);
}

TEST(ParallelEngine, RejectsDecompressionBomb) {
  // A ~200-byte container claiming 2^40 elements must be rejected during
  // parsing, before decompress allocates terabytes for the output.
  const auto data = test::smooth_signal(1024);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  const u64 bomb = u64(1) << 40;
  patch_u64(stream, 16, bomb);  // header element_count
  patch_u64(stream, 24, bomb);  // header chunk_elems (keeps chunk_count = 1)
  patch_u64(stream, io::ChunkedHeader::kHeaderBytes + 16, bomb);  // entry
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
  EXPECT_THROW(eng.decompress(stream), Error);
}

TEST(ParallelEngine, RejectsInconsistentChunkCount) {
  const auto data = test::smooth_signal(2048);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  // Claim one huge chunk covers everything while two table entries remain.
  patch_u64(stream, 24, u64(1) << 32);  // header chunk_elems
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
}

TEST(ParallelEngine, RejectsPayloadLengthOverflow) {
  // compressed_bytes near 2^64 would wrap `offset + compressed_bytes` past
  // the stream-size bound and feed an out-of-range subspan to the reader.
  const auto data = test::smooth_signal(2048);
  const ParallelEngine eng(small_chunks(2, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  patch_u64(stream, io::ChunkedHeader::kHeaderBytes + 8, ~u64(0) - 8);
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
}

TEST(ParallelEngine, RejectsChunkSizeThatSplitsABlock) {
  // chunk_elems must be a whole number of blocks, or consecutive chunks'
  // records would not form one block sequence.
  const auto data = test::smooth_signal(1000);
  auto stream = core::StreamCodec()
                    .compress(data, core::ErrorBound::absolute(1e-3))
                    .stream;
  patch_u64(stream, 24, 1000);  // header chunk_elems: 1024 -> 1000
  reseal(stream);
  EXPECT_THROW(io::parse_container(stream), Error);
}

TEST(ParallelEngine, RejectsTrailingBytes) {
  const auto data = test::smooth_signal(1000);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  const ParallelEngine strict(small_chunks(2, 256));
  const ParallelEngine lenient(small_chunks(2, 256, true));
  for (auto stream : {strict.compress(data, bound).stream,
                      core::StreamCodec().compress(data, bound).stream}) {
    stream.insert(stream.end(), 100, u8{0});
    // The container's structure is wrong, so even lenient mode refuses it.
    EXPECT_THROW(strict.decompress(stream), Error);
    EXPECT_THROW(lenient.decompress(stream), Error);
  }
}

TEST(ChunkContainer, WriterRejectsFieldsThatDoNotFitTheirEncoding) {
  std::vector<u8> out;
  io::ChunkedHeader header;
  header.chunk_count = 0;
  header.block_size = 0x10000;  // does not fit the u16 field
  EXPECT_THROW(io::write_container_prefix(out, header, {}), Error);
  out.clear();
  header.block_size = 32;
  header.codec_header_bytes = 0x100;  // does not fit the u8 field
  EXPECT_THROW(io::write_container_prefix(out, header, {}), Error);
}

TEST(ParallelEngine, DecodesStreamCodecStreamAndRejectsMismatchedConfig) {
  const auto data = test::smooth_signal(1024);
  const core::StreamCodec codec;
  const auto single = codec.compress(data, core::ErrorBound::absolute(1e-3));
  const ParallelEngine eng(small_chunks(2));
  EXPECT_EQ(eng.decompress(single.stream).values, codec.decompress(single.stream));

  const auto chunked = eng.compress(data, core::ErrorBound::absolute(1e-3));
  EngineOptions other = small_chunks(2);
  other.codec.header_bytes = 1;
  const ParallelEngine reader(other);
  EXPECT_THROW(reader.decompress(chunked.stream), Error);
}

TEST(ParallelEngine, RejectsChunkElemsNotMultipleOfBlockSize) {
  EngineOptions opt;
  opt.chunk_elems = 100;  // not a multiple of 32
  EXPECT_THROW(ParallelEngine{opt}, Error);
}

// --- metrics ----------------------------------------------------------------

TEST(ParallelEngine, StatsSurfaceIsPopulated) {
  const auto data = test::smooth_signal(32768);
  const ParallelEngine eng(small_chunks(3, 1024));
  const auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
  const auto& s = result.stats;
  EXPECT_EQ(s.threads, 3u);
  EXPECT_EQ(s.chunks, 32u);
  EXPECT_EQ(s.uncompressed_bytes, data.size() * sizeof(f32));
  EXPECT_EQ(s.compressed_bytes, result.stream.size());
  EXPECT_EQ(s.worker_busy_seconds.size(), 3u);
  EXPECT_GT(s.busy_seconds_total(), 0.0);
  EXPECT_GT(s.wall_seconds, 0.0);
  EXPECT_GT(s.throughput_gbps(), 0.0);
  EXPECT_GE(s.queue_high_water, 1u);
  // Queue capacity defaults to 2 * threads; backpressure caps the backlog.
  EXPECT_LE(s.queue_high_water, 6u);

  const auto back = eng.decompress(result.stream);
  EXPECT_EQ(back.stats.chunks, 32u);
  EXPECT_EQ(back.stats.uncompressed_bytes, data.size() * sizeof(f32));
  EXPECT_GT(back.stats.wall_seconds, 0.0);
}

TEST(ParallelEngine, MetricsAccumulateAcrossRepeatedRuns) {
  // A long-running caller (the compression service, a batch loop) reuses
  // one engine for many compress()/decompress() calls against one
  // registry: every run must ADD to the counters, never reset them, and
  // totals must be exactly per-run value x runs.
  const auto data = test::smooth_signal(8192);
  obs::MetricsRegistry reg;
  EngineOptions opt = small_chunks(2, 1024);  // 8 chunks per compress
  opt.metrics = &reg;
  const ParallelEngine eng(opt);

  std::vector<u8> stream;
  for (int run = 1; run <= 3; ++run) {
    const auto result = eng.compress(data, core::ErrorBound::absolute(1e-3));
    stream = result.stream;
    EXPECT_EQ(reg.counter(kMetricChunks).value(),
              static_cast<u64>(run) * 8u)
        << "run " << run;
    EXPECT_EQ(reg.counter(kMetricUncompressedBytes).value(),
              static_cast<u64>(run) * data.size() * sizeof(f32));
    EXPECT_EQ(reg.counter(kMetricCompressedBytes).value(),
              static_cast<u64>(run) * stream.size());
  }
  for (int run = 1; run <= 2; ++run) {
    (void)eng.decompress(stream);
    // Decompress runs count their chunks into the same family.
    EXPECT_EQ(reg.counter(kMetricChunks).value(),
              (3u + static_cast<u64>(run)) * 8u)
        << "decompress run " << run;
  }

  // Concurrent reuse of ONE engine against one registry: totals still
  // come out exact (counters are sharded, merges are atomic).
  obs::MetricsRegistry shared;
  EngineOptions copt = small_chunks(2, 1024);
  copt.metrics = &shared;
  const ParallelEngine shared_eng(copt);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        (void)shared_eng.compress(data, core::ErrorBound::absolute(1e-3));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(shared.counter(kMetricChunks).value(), 4u * 3u * 8u);
}

// --- thread pool / bounded queue -------------------------------------------

TEST(BoundedQueue, BlocksProducersAtCapacityAndTracksHighWater) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.push(3);  // must block until a pop frees a slot
    third_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  q.close();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.push(4));
}

TEST(ThreadPool, RunsEveryTaskAndReportsBusyTime) {
  ThreadPool pool(4, 2);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.submit([&sum, i] { sum += i; });
  }
  pool.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(pool.busy_seconds().size(), 4u);
  EXPECT_GE(pool.queue_high_water(), 1u);
  EXPECT_LE(pool.queue_high_water(), 2u);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.wait_idle();  // no tasks: returns immediately
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (round + 1) * 10);
  }
}

// --- long-lived runtime -----------------------------------------------------

bool same_bits(const std::vector<f32>& a, const std::vector<f32>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) == 0;
}

/// The process's thread count from /proc/self/status, if readable.
std::optional<int> process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return std::nullopt;
}

TEST(EngineRuntime, ConcurrentCallsOnOneEngineMatchTheSingleThreadReference) {
  // 4 caller threads x 50 calls on one 4-worker engine, mixing a 1-chunk
  // and a 32-chunk input: every stream is byte-identical to the 1-thread
  // engine's, every decode bit-identical.
  const auto small = test::smooth_signal(1024);
  const auto large = test::smooth_signal(32 * 1024);
  const auto bound = core::ErrorBound::relative(1e-3);
  const ParallelEngine reference(small_chunks(1, 1024));
  const auto small_ref = reference.compress(small, bound);
  const auto large_ref = reference.compress(large, bound);
  const auto small_back = reference.decompress(small_ref.stream).values;
  const auto large_back = reference.decompress(large_ref.stream).values;

  const ParallelEngine shared(small_chunks(4, 1024));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const bool big = (i + t) % 2 == 0;
        const auto result = shared.compress(big ? large : small, bound);
        if (result.stream != (big ? large_ref : small_ref).stream) {
          ++mismatches;
        }
        const auto back = shared.decompress(result.stream);
        if (!same_bits(back.values, big ? large_back : small_back)) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- decoding into caller-owned memory ---------------------------------------

/// A span prefilled with NaN: any value a decode does not write shows.
std::vector<f32> nan_filled(std::size_t n) {
  return std::vector<f32>(n, std::numeric_limits<f32>::quiet_NaN());
}

TEST(DecompressInto, BitIdenticalToDecompressAndStreamCodec) {
  // 1, 7 and 32 chunks, each with a partial last chunk, at 1 and 4
  // threads: decompress_into, decompress() and StreamCodec agree bit for
  // bit, and so do both thread counts.
  const u64 chunk_elems = 1024;
  const core::StreamCodec codec;
  for (const u64 chunks : {1u, 7u, 32u}) {
    const auto data = test::smooth_signal(chunks * chunk_elems - 100);
    const auto stream =
        ParallelEngine(small_chunks(1, chunk_elems))
            .compress(data, core::ErrorBound::relative(1e-3))
            .stream;
    ASSERT_EQ(io::parse_container(stream).entries.size(), chunks);
    const auto reference = codec.decompress(stream);
    for (const u32 threads : {1u, 4u}) {
      const ParallelEngine eng(small_chunks(threads, chunk_elems));
      auto into = nan_filled(data.size());
      const DecodeReport report = eng.decompress_into(stream, into);
      EXPECT_TRUE(report.corrupt_chunks.empty());
      EXPECT_EQ(report.stats.chunks, chunks);
      EXPECT_TRUE(same_bits(into, reference))
          << chunks << " chunks, " << threads << " threads";
      EXPECT_TRUE(same_bits(eng.decompress(stream).values, reference))
          << chunks << " chunks, " << threads << " threads";
    }
  }
}

TEST(DecompressInto, LenientQuarantineZeroesExactlyTheCorruptRange) {
  const u64 chunk_elems = 1024;
  const auto data = test::smooth_signal(10 * chunk_elems - 300);
  auto stream = ParallelEngine(small_chunks(4, chunk_elems))
                    .compress(data, core::ErrorBound::absolute(1e-3))
                    .stream;
  const auto clean = core::StreamCodec().decompress(stream);
  corrupt_chunk(stream, 3);

  const ParallelEngine lenient(small_chunks(4, chunk_elems, true));
  auto out = nan_filled(data.size());
  const DecodeReport report = lenient.decompress_into(stream, out);
  EXPECT_EQ(report.corrupt_chunks, (std::vector<u64>{3}));
  EXPECT_EQ(report.stats.quarantined, 1u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i / chunk_elems == 3) {
      ASSERT_EQ(out[i], 0.0f) << "i=" << i;
      ASSERT_FALSE(std::signbit(out[i])) << "i=" << i;
    } else {
      ASSERT_EQ(std::memcmp(&out[i], &clean[i], sizeof(f32)), 0)
          << "i=" << i;
    }
  }
}

TEST(DecompressInto, WrongSizeSpanThrowsAndIsLeftUntouched) {
  const auto data = test::smooth_signal(5000);
  const ParallelEngine eng(small_chunks(4, 1024));
  const auto stream =
      eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  for (const std::size_t size : {data.size() - 1, data.size() + 1,
                                 std::size_t{0}}) {
    auto out = nan_filled(size);
    EXPECT_THROW(eng.decompress_into(stream, out), Error) << size;
    EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                            [](f32 v) { return std::isnan(v); }))
        << size;
  }
}

TEST(DecompressInto, StrictModeThrowsOnACorruptChunk) {
  const auto data = test::smooth_signal(5000);
  const ParallelEngine eng(small_chunks(4, 1024));
  auto stream = eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
  corrupt_chunk(stream, 2);
  auto out = nan_filled(data.size());
  EXPECT_THROW(eng.decompress_into(stream, out), Error);
}

TEST(DecompressInto, CheckRejectsAForeignCodecAndAnotherEnginesContainer) {
  const auto data = test::smooth_signal(5000);
  const ParallelEngine eng(small_chunks(4, 1024));
  const auto stream =
      eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;

  // A container written with another block header width never passes
  // check(), so nothing is ever sized from its element count.
  EngineOptions szp = small_chunks(4, 1024);
  szp.codec.header_bytes = 1;
  const auto foreign = ParallelEngine(szp)
                           .compress(data, core::ErrorBound::absolute(1e-3))
                           .stream;
  EXPECT_THROW((void)eng.check(foreign), Error);

  // A checked container sizes the output, and only the engine that
  // checked it decodes it.
  const CheckedContainer checked = eng.check(stream);
  ASSERT_EQ(checked.element_count(), data.size());
  auto out = nan_filled(checked.element_count());
  const ParallelEngine other(small_chunks(4, 1024));
  EXPECT_THROW(other.decompress_into(checked, out), Error);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](f32 v) { return std::isnan(v); }));
  (void)eng.decompress_into(checked, out);
  EXPECT_TRUE(same_bits(out, eng.decompress(stream).values));
}

TEST(DecompressInto, PipelinedDecompressSurvivesFaultsAndARunDeadline) {
  // The vector decompress() grows chunk by chunk must come out the same
  // when attempts throw, crash their worker, or stall past their
  // deadline and are retried — retries never re-grow it.
  const u64 chunk_elems = 1024;
  const auto data = test::smooth_signal(24 * chunk_elems - 7);
  const auto stream = ParallelEngine(small_chunks(1, chunk_elems))
                          .compress(data, core::ErrorBound::relative(1e-3))
                          .stream;
  const auto reference = core::StreamCodec().decompress(stream);

  EngineOptions opt = small_chunks(4, chunk_elems);
  opt.faults.fail_chunk(0, 2);
  opt.faults.fail_chunk(23, 1);
  opt.faults.crash_chunk(5);
  opt.faults.crash_chunk(11);
  opt.faults.stall_ms = 10000;
  opt.faults.stall_chunk(9);
  opt.retry.deadline_ms = 200;
  opt.retry.max_attempts = 4;
  const ParallelEngine eng(opt);
  const auto run_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);

  const auto back = eng.decompress(stream, run_deadline);
  EXPECT_TRUE(same_bits(back.values, reference));
  EXPECT_TRUE(back.corrupt_chunks.empty());
  // At least the injected ones: on a loaded host a healthy attempt may
  // also overrun its deadline and be retried.
  EXPECT_GE(back.stats.retries, 6u);
  EXPECT_GE(back.stats.timeouts, 1u);
  EXPECT_EQ(back.stats.worker_crashes, 2u);

  auto into = nan_filled(data.size());
  (void)eng.decompress_into(stream, into, run_deadline);
  EXPECT_TRUE(same_bits(into, reference));
}

TEST(DecompressInto, ConcurrentCallersOnOneEngineDecodeIdentically) {
  // 4 callers share one 4-worker engine, alternating the pipelined
  // decompress() and decompress_into on a 32-chunk stream.
  const auto data = test::smooth_signal(32 * 1024 - 11);
  const ParallelEngine eng(small_chunks(4, 1024));
  const auto stream =
      eng.compress(data, core::ErrorBound::relative(1e-3)).stream;
  const auto reference = core::StreamCodec().decompress(stream);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        if ((i + t) % 2 == 0) {
          if (!same_bits(eng.decompress(stream).values, reference)) {
            ++mismatches;
          }
        } else {
          auto out = nan_filled(data.size());
          (void)eng.decompress_into(stream, out);
          if (!same_bits(out, reference)) ++mismatches;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineRuntime, ThreadCountIsStableAcrossCalls) {
  // The pool is built once and the deadline timer started once: calls
  // after the first create no threads.
  EngineOptions opt = small_chunks(3, 1024);
  opt.retry.deadline_ms = 2000;
  const ParallelEngine eng(opt);
  const auto data = test::smooth_signal(8 * 1024);
  const auto bound = core::ErrorBound::absolute(1e-3);
  const auto first = eng.compress(data, bound);
  const std::optional<int> before = process_threads();
  if (!before) GTEST_SKIP() << "/proc/self/status is not available";
  for (int i = 0; i < 100; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(eng.compress(data, bound).stream, first.stream);
    } else {
      (void)eng.decompress(first.stream);
    }
  }
  EXPECT_EQ(process_threads(), before);
}

/// Busy time booked to a run happened during that run: no worker can be
/// busy longer than the run's wall time, and at most the two calling
/// threads of the test below ran its tasks inline.
void expect_busy_within_run(const EngineStats& s) {
  ASSERT_EQ(s.worker_busy_seconds.size(), 2u);
  for (const f64 busy : s.worker_busy_seconds) {
    EXPECT_LE(busy, s.wall_seconds);
  }
  EXPECT_LE(s.inline_busy_seconds, 2.0 * s.wall_seconds);
}

TEST(EngineRuntime, ConcurrentRunsReportOnlyTheirOwnWork) {
  // A long run keeps the shared pool's queue full while short runs come
  // and go; each run's stats count its own chunks, queue backlog and
  // busy time only.
  const ParallelEngine eng(small_chunks(2, 1024));
  const auto big = test::smooth_signal(256 * 1024);
  const auto small = test::smooth_signal(2 * 1024);
  const auto bound = core::ErrorBound::absolute(1e-3);

  std::atomic<bool> big_done{false};
  std::vector<EngineResult> big_runs;
  std::thread long_caller([&] {
    for (int i = 0; i < 3; ++i) big_runs.push_back(eng.compress(big, bound));
    big_done = true;
  });
  int small_runs = 0;
  do {
    const auto r = eng.compress(small, bound);
    ++small_runs;
    EXPECT_EQ(r.stats.chunks, 2u);
    EXPECT_EQ(r.stats.uncompressed_bytes, small.size() * sizeof(f32));
    EXPECT_LE(r.stats.queue_high_water, 2u);
    expect_busy_within_run(r.stats);
  } while (!big_done.load() || small_runs < 5);
  long_caller.join();

  for (const EngineResult& r : big_runs) {
    EXPECT_EQ(r.stats.chunks, 256u);
    EXPECT_EQ(r.stats.uncompressed_bytes, big.size() * sizeof(f32));
    expect_busy_within_run(r.stats);
  }
}

TEST(EngineRuntime, CrashedWorkersAreReplacedForTheNextRun) {
  // Chunks 8..15 crash their worker on the first attempt, so a 16-chunk
  // run can take both workers down. The next (clean, 8-chunk) runs on the
  // same engine must still execute on pool workers: nothing runs in the
  // collapsed-pool fallback, and every worker slot does work. Chunks 0..7
  // are slowed down (a stall without a deadline just sleeps) so the
  // helping caller cannot finish a run before the workers wake up.
  EngineOptions opt = small_chunks(2, 1024);
  for (u64 c = 8; c < 16; ++c) opt.faults.crash_chunk(c, 0);
  opt.faults.stall_ms = 5;
  for (u64 c = 0; c < 8; ++c) opt.faults.stall_chunk(c);
  const ParallelEngine eng(opt);
  const auto bound = core::ErrorBound::absolute(1e-3);
  const auto crashing = eng.compress(test::smooth_signal(16 * 1024), bound);
  EXPECT_EQ(crashing.stats.worker_crashes, 8u);

  const auto data = test::smooth_signal(8 * 1024);
  std::vector<f64> busy(2, 0.0);
  for (int run = 0; run < 20 && (busy[0] == 0.0 || busy[1] == 0.0); ++run) {
    const auto clean = eng.compress(data, bound);
    EXPECT_EQ(clean.stats.worker_crashes, 0u);
    EXPECT_EQ(clean.stats.fallback_chunks, 0u);
    ASSERT_EQ(clean.stats.worker_busy_seconds.size(), 2u);
    for (std::size_t w = 0; w < 2; ++w) {
      busy[w] += clean.stats.worker_busy_seconds[w];
    }
  }
  EXPECT_GT(busy[0], 0.0);
  EXPECT_GT(busy[1], 0.0);
}

TEST(EngineRuntime, DeadlineDoesNotDelayAFastRun) {
  // A generous per-attempt deadline costs nothing when the work is fast:
  // the run ends when its chunks do, not on a timer tick.
  EngineOptions opt;
  opt.retry.deadline_ms = 2000;
  const ParallelEngine eng(opt);
  const auto data = test::smooth_signal(64 * 1024);
  const auto bound = core::ErrorBound::relative(1e-3);

  auto start = std::chrono::steady_clock::now();
  const auto result = eng.compress(data, bound);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));

  start = std::chrono::steady_clock::now();
  (void)eng.decompress(result.stream);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST(EngineRuntime, RunDeadlineCancelsStalledChunks) {
  // The absolute deadline passed with the call bounds every attempt, on
  // top of (here: without) RetryPolicy::deadline_ms.
  EngineOptions opt = small_chunks(2, 1024);
  opt.faults.stall_ms = 10000;
  opt.faults.stall_chunk(1, 3);
  const ParallelEngine eng(opt);
  const auto data = test::smooth_signal(4 * 1024);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(eng.compress(data, core::ErrorBound::absolute(1e-3),
                            start + std::chrono::milliseconds(50)),
               Error);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

}  // namespace
}  // namespace ceresz::engine

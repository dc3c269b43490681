// Robustness / failure-injection suite: corrupt, truncate, and mangle
// compressed streams. Every decoder in the library must either reproduce
// data or throw ceresz::Error — never crash, hang, or read out of bounds.
#include <gtest/gtest.h>

#include "baselines/compressor.h"
#include "common/rng.h"
#include "core/stream_codec.h"
#include "engine/parallel_engine.h"
#include "io/chunk_container.h"
#include "mapping/wafer_mapper.h"
#include "net/protocol.h"
#include "test_util.h"

namespace ceresz {
namespace {

// Decode and ignore the outcome; only crashes/UB are failures. Bit flips
// can produce a stream that still parses (flipping payload bits changes
// values, not structure), so a successful decode is acceptable.
template <typename Fn>
void expect_no_crash(Fn&& decode) {
  try {
    decode();
  } catch (const Error&) {
    // Structured rejection is the expected failure mode.
  }
}

class StreamFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(StreamFuzz, BitFlipsNeverCrashStreamCodec) {
  const core::StreamCodec codec;
  const auto data = test::smooth_signal(32 * 64, GetParam());
  auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
  Rng rng(GetParam() * 977 + 1);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = result.stream;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = rng.next_below(corrupted.size());
      corrupted[byte] ^= static_cast<u8>(1u << rng.next_below(8));
    }
    expect_no_crash([&] { codec.decompress(corrupted); });
  }
}

TEST_P(StreamFuzz, TruncationsNeverCrashStreamCodec) {
  const core::StreamCodec codec;
  const auto data = test::smooth_signal(32 * 64, GetParam());
  const auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t cut = rng.next_below(result.stream.size());
    std::span<const u8> truncated(result.stream.data(), cut);
    expect_no_crash([&] { codec.decompress(truncated); });
  }
}

// The container's CRCs reject every flip above before a record is read,
// so the block records get their own flips, straight into the decoder.
TEST_P(StreamFuzz, BitFlipsNeverCrashTheRecordDecoder) {
  const core::BlockCodec codec(core::CodecConfig{});
  const auto data = test::smooth_signal(32 * 64 + 7, GetParam());
  std::vector<u8> records;
  core::StreamStats stats;
  codec.encode_blocks(data, 1e-3, records, stats);
  Rng rng(GetParam() * 211 + 29);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = records;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      corrupted[rng.next_below(corrupted.size())] ^=
          static_cast<u8>(1u << rng.next_below(8));
    }
    if (trial % 5 == 0) corrupted.resize(rng.next_below(corrupted.size()));
    std::vector<f32> out(data.size());
    expect_no_crash([&] { codec.decode_blocks(corrupted, 1e-3, out); });
  }
}

TEST_P(StreamFuzz, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(GetParam() * 131 + 3);
  const core::StreamCodec stream_codec;
  const auto sz3 = baselines::make_sz3();
  const auto cusz = baselines::make_cusz();
  const auto szp = baselines::make_szp();
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<u8> junk(16 + rng.next_below(4096));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    expect_no_crash([&] { stream_codec.decompress(junk); });
    expect_no_crash([&] { sz3->decompress(junk); });
    expect_no_crash([&] { cusz->decompress(junk); });
    expect_no_crash([&] { szp->decompress(junk); });
  }
}

TEST_P(StreamFuzz, BitFlipsNeverCrashBaselines) {
  data::Field f;
  f.dataset = "fuzz";
  f.name = "x";
  f.values = test::smooth_signal(4000, GetParam());
  f.dims = {f.values.size()};
  const auto sz3 = baselines::make_sz3();
  const auto stream = sz3->compress(f, core::ErrorBound::absolute(1e-3),
                                    nullptr);
  Rng rng(GetParam() * 17 + 5);
  for (int trial = 0; trial < 60; ++trial) {
    auto corrupted = stream;
    corrupted[rng.next_below(corrupted.size())] ^=
        static_cast<u8>(1u << rng.next_below(8));
    expect_no_crash([&] { sz3->decompress(corrupted); });
  }
}

// The wafer reader indexes records itself, so it gets its own fuzz: a
// small mesh keeps each surviving decode cheap.
mapping::WaferMapper small_wafer() {
  mapping::MapperOptions opt;
  opt.rows = 1;
  opt.cols = 4;
  return mapping::WaferMapper(opt);
}

TEST_P(StreamFuzz, BitFlipsNeverCrashWaferMapper) {
  const auto mapper = small_wafer();
  const auto data = test::smooth_signal(32 * 16 + 5, GetParam());
  const auto stream =
      core::StreamCodec().compress(data, core::ErrorBound::absolute(1e-3)).stream;
  Rng rng(GetParam() * 659 + 17);
  for (int trial = 0; trial < 100; ++trial) {
    auto corrupted = stream;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = rng.next_below(corrupted.size());
      corrupted[byte] ^= static_cast<u8>(1u << rng.next_below(8));
    }
    expect_no_crash([&] { mapper.decompress(corrupted); });
  }
}

TEST_P(StreamFuzz, TruncationsNeverCrashWaferMapper) {
  const auto mapper = small_wafer();
  const auto data = test::smooth_signal(32 * 16 + 5, GetParam());
  const auto stream =
      core::StreamCodec().compress(data, core::ErrorBound::absolute(1e-3)).stream;
  Rng rng(GetParam() * 37 + 19);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t cut = rng.next_below(stream.size());
    std::span<const u8> truncated(stream.data(), cut);
    // Every proper prefix breaks the table or the chunk's extent.
    EXPECT_THROW(mapper.decompress(truncated), Error) << "cut " << cut;
  }
}

TEST_P(StreamFuzz, RandomBytesNeverCrashWaferMapper) {
  const auto mapper = small_wafer();
  Rng rng(GetParam() * 113 + 23);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<u8> junk(16 + rng.next_below(4096));
    for (auto& b : junk) b = static_cast<u8>(rng.next_u64());
    // The magic alone makes random bytes a foreign stream; also try them
    // behind a valid magic so the header checks run.
    expect_no_crash([&] { mapper.decompress(junk); });
    std::copy_n("CSZC", 4, junk.begin());
    expect_no_crash([&] { mapper.decompress(junk); });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzz, ::testing::Values(1, 2, 3, 4));

// ---- Chunked "CSZC" container fuzz ----

engine::EngineOptions chunked_options(bool lenient = false) {
  engine::EngineOptions opt;
  opt.threads = 2;
  opt.chunk_elems = 256;  // 8 chunks for the 2048-element inputs below
  opt.lenient = lenient;
  return opt;
}

std::vector<u8> make_chunked_stream(u64 seed) {
  const engine::ParallelEngine eng(chunked_options());
  const auto data = test::smooth_signal(2048, seed);
  return eng.compress(data, core::ErrorBound::absolute(1e-3)).stream;
}

TEST_P(StreamFuzz, ChunkedHeaderAndTableFlipsAreRejectedStructurally) {
  const auto stream = make_chunked_stream(GetParam());
  // Every byte of the header and chunk table is covered by a CRC (or is
  // the magic/CRC itself), so ANY flip there must throw — in strict AND
  // lenient mode: lenient only forgives payload corruption, never a
  // container whose structure cannot be trusted.
  const std::size_t prefix = io::parse_container(stream).header.payload_start();
  const engine::ParallelEngine strict(chunked_options(false));
  const engine::ParallelEngine lenient(chunked_options(true));
  Rng rng(GetParam() * 271 + 9);
  for (int trial = 0; trial < 150; ++trial) {
    auto corrupted = stream;
    const std::size_t byte = rng.next_below(prefix);
    corrupted[byte] ^= static_cast<u8>(1u << rng.next_below(8));
    EXPECT_THROW(strict.decompress(corrupted), Error) << "byte " << byte;
    EXPECT_THROW(lenient.decompress(corrupted), Error) << "byte " << byte;
  }
}

TEST_P(StreamFuzz, ChunkedPayloadFlipsAreDetectedPerChunk) {
  const auto stream = make_chunked_stream(GetParam());
  const std::size_t prefix = io::parse_container(stream).header.payload_start();
  const engine::ParallelEngine strict(chunked_options(false));
  const engine::ParallelEngine lenient(chunked_options(true));
  Rng rng(GetParam() * 83 + 11);
  for (int trial = 0; trial < 40; ++trial) {
    auto corrupted = stream;
    const std::size_t byte =
        prefix + rng.next_below(corrupted.size() - prefix);
    corrupted[byte] ^= static_cast<u8>(1u << rng.next_below(8));
    // A single payload flip always changes the chunk's CRC32C: strict
    // throws, lenient quarantines exactly the flipped chunk.
    EXPECT_THROW(strict.decompress(corrupted), Error) << "byte " << byte;
    const auto recovered = lenient.decompress(corrupted);
    EXPECT_EQ(recovered.corrupt_chunks.size(), 1u) << "byte " << byte;
    EXPECT_EQ(recovered.stats.quarantined, 1u);
  }
}

TEST_P(StreamFuzz, ChunkedTruncationsAreRejectedStructurally) {
  const auto stream = make_chunked_stream(GetParam());
  const engine::ParallelEngine strict(chunked_options(false));
  const engine::ParallelEngine lenient(chunked_options(true));
  Rng rng(GetParam() * 47 + 13);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t cut = rng.next_below(stream.size());
    const std::vector<u8> truncated(stream.begin(), stream.begin() + cut);
    // The last chunk's payload runs to the final byte, so every proper
    // prefix breaks either the table or a chunk's recorded extent.
    EXPECT_THROW(strict.decompress(truncated), Error) << "cut " << cut;
    EXPECT_THROW(lenient.decompress(truncated), Error) << "cut " << cut;
  }
}

// ---- CSNP service-frame fuzz ----
// The network protocol parsers face bytes straight off a socket, so they
// get the same treatment as the stream decoders: flips, truncations, and
// junk must throw ceresz::Error — never crash or read out of bounds.

TEST_P(StreamFuzz, ServiceFramesNeverCrashTheProtocolParsers) {
  const auto data = test::smooth_signal(512, GetParam());
  net::CompressRequest creq;
  creq.bound = core::ErrorBound::relative(1e-3);
  creq.data = data;
  std::vector<u8> payload;
  net::append_compress_request(payload, creq);
  std::vector<u8> frame;
  net::append_frame(frame, net::Opcode::kCompress, net::Status::kOk,
                    /*request_id=*/7, payload);

  Rng rng(GetParam() * 193 + 21);
  for (int trial = 0; trial < 200; ++trial) {
    auto fuzzed = frame;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      fuzzed[rng.next_below(fuzzed.size())] ^=
          static_cast<u8>(1u << rng.next_below(8));
    }
    if (rng.next_below(3) == 0) fuzzed.resize(rng.next_below(fuzzed.size()));
    expect_no_crash([&] {
      const net::FrameHeader h = net::parse_frame_header(
          std::span<const u8>(fuzzed).subspan(
              0, std::min(fuzzed.size(), net::kFrameHeaderBytes)),
          net::kDefaultMaxPayload);
      // Only decode as much payload as actually exists — exactly what a
      // reader does after read_exact() succeeds; the decoder must then
      // reconcile the declared counts with the real size on its own.
      const std::size_t have =
          std::min<std::size_t>(fuzzed.size() - net::kFrameHeaderBytes,
                                static_cast<std::size_t>(h.payload_bytes));
      (void)net::decode_compress_request(
          std::span<const u8>(fuzzed).subspan(net::kFrameHeaderBytes, have));
    });
  }
}

// ---- Magic-value cross-feeding: every decoder rejects every other
// codec's streams. ----

TEST(CrossFeed, DecodersRejectEachOthersStreams) {
  data::Field f;
  f.dataset = "x";
  f.name = "y";
  f.values = test::smooth_signal(2048);
  f.dims = {f.values.size()};
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);

  const core::StreamCodec ceresz_codec;
  const auto ceresz_stream = ceresz_codec.compress(f.values, bound).stream;
  const auto sz3 = baselines::make_sz3();
  const auto sz3_stream = sz3->compress(f, bound, nullptr);
  const auto cusz = baselines::make_cusz();
  const auto cusz_stream = cusz->compress(f, bound, nullptr);

  EXPECT_THROW(ceresz_codec.decompress(sz3_stream), Error);
  EXPECT_THROW(ceresz_codec.decompress(cusz_stream), Error);
  EXPECT_THROW(sz3->decompress(ceresz_stream), Error);
  EXPECT_THROW(sz3->decompress(cusz_stream), Error);
  EXPECT_THROW(cusz->decompress(sz3_stream), Error);
  EXPECT_THROW(cusz->decompress(ceresz_stream), Error);
}

// ---- One container, every writer, every reader ----

TEST(CrossReader, EveryWriterDecodesIdenticallyThroughEveryReader) {
  const auto data = test::smooth_signal(32 * 40 + 11, 8);
  const core::ErrorBound bound = core::ErrorBound::absolute(1e-3);
  const core::StreamCodec codec;
  mapping::MapperOptions mopt;
  mopt.rows = 2;
  mopt.cols = 4;
  const mapping::WaferMapper mapper(mopt);
  engine::EngineOptions eopt;
  eopt.threads = 2;
  eopt.chunk_elems = 32 * 8;  // 6 chunks, the last one short
  const engine::ParallelEngine eng(eopt);

  const std::vector<std::vector<u8>> streams = {
      codec.compress(data, bound).stream,
      eng.compress(data, bound).stream,
      mapper.compress(data, bound).stream,
  };
  ASSERT_EQ(io::parse_container(streams[1]).entries.size(), 6u);
  const std::vector<f32> expected = codec.decompress(streams[0]);
  ASSERT_EQ(expected.size(), data.size());
  EXPECT_LE(test::max_err(data, expected), 1e-3 + test::f32_ulp_slack(data));
  for (std::size_t w = 0; w < streams.size(); ++w) {
    EXPECT_EQ(codec.decompress(streams[w]), expected) << "writer " << w;
    EXPECT_EQ(eng.decompress(streams[w]).values, expected) << "writer " << w;
    EXPECT_EQ(mapper.decompress(streams[w]).output, expected)
        << "writer " << w;
  }
}

TEST(CrossReader, EveryReaderRejectsRecordsThatEndBeforeTheirChunk) {
  // A well-framed chunk (valid CRCs) holding bytes after its last block
  // record: corruption to every reader, never silently ignored.
  const auto data = test::smooth_signal(1000);
  const f64 eps = 1e-3;
  const core::StreamCodec codec;
  std::vector<u8> stream(io::single_chunk_prefix_bytes(data.size()), 0);
  core::StreamStats stats;
  codec.block_codec().encode_blocks(data, eps, stream, stats);
  stream.insert(stream.end(), 5, u8{0});
  io::frame_single_chunk(stream, codec.config().header_bytes,
                         codec.config().block_size, data.size(), eps);

  EXPECT_THROW(codec.decompress(stream), Error);
  engine::EngineOptions opt = chunked_options();
  const engine::ParallelEngine strict(opt);
  EXPECT_THROW(strict.decompress(stream), Error);
  opt.lenient = true;
  EXPECT_EQ(engine::ParallelEngine(opt).decompress(stream).corrupt_chunks,
            (std::vector<u64>{0}));
  EXPECT_THROW(small_wafer().decompress(stream), Error);
}

// ---- Extreme inputs ----

TEST(ExtremeInputs, HugeValuesAtTightBoundThrowCleanly) {
  const core::StreamCodec codec;
  std::vector<f32> huge(64, 3.0e9f);
  huge[0] = 0.0f;  // force a nonzero value range
  EXPECT_THROW(codec.compress(huge, core::ErrorBound::absolute(1e-6)), Error);
}

TEST(ExtremeInputs, DenormalsAndTinyValuesRoundTrip) {
  std::vector<f32> tiny(320);
  Rng rng(5);
  for (auto& v : tiny) {
    v = static_cast<f32>(rng.uniform(-1e-38, 1e-38));
  }
  const core::StreamCodec codec;
  const auto result = codec.compress(tiny, core::ErrorBound::absolute(1e-20));
  const auto back = codec.decompress(result.stream);
  EXPECT_LE(test::max_err(tiny, back), 1e-20 + test::f32_ulp_slack(tiny));
}

TEST(ExtremeInputs, AlternatingExtremesRoundTrip) {
  std::vector<f32> data(320);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i % 2) ? 1000.0f : -1000.0f;
  }
  const core::StreamCodec codec;
  const auto result = codec.compress(data, core::ErrorBound::relative(1e-4));
  const auto back = codec.decompress(result.stream);
  EXPECT_LE(test::max_err(data, back),
            result.eps_abs + test::f32_ulp_slack(data));
}

TEST(ExtremeInputs, SingleElementStream) {
  const core::StreamCodec codec;
  const std::vector<f32> one = {42.0f};
  const auto result = codec.compress(one, core::ErrorBound::absolute(0.5));
  const auto back = codec.decompress(result.stream);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NEAR(back[0], 42.0f, 0.5);
}

}  // namespace
}  // namespace ceresz

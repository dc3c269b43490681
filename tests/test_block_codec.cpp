#include "core/block_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.h"
#include "test_util.h"

namespace ceresz::core {
namespace {

CodecConfig config_with(u32 header_bytes, bool shortcut = true,
                        u32 block = 32) {
  CodecConfig cfg;
  cfg.block_size = block;
  cfg.header_bytes = header_bytes;
  cfg.zero_block_shortcut = shortcut;
  return cfg;
}

TEST(BlockCodec, CompressedSizeFormula) {
  // L = 32: header + L/8 signs + fl * L/8 payload.
  const BlockCodec codec(config_with(4));
  EXPECT_EQ(codec.compressed_size(0), 4u);         // zero block
  EXPECT_EQ(codec.compressed_size(1), 4u + 4 + 4);
  EXPECT_EQ(codec.compressed_size(17), 4u + 4 + 68);
  const BlockCodec szp(config_with(1));
  EXPECT_EQ(szp.compressed_size(0), 1u);  // SZp's 128x sparse-data cap
}

TEST(BlockCodec, PaperRatioExample) {
  // Section 3: an 8-element block with fl 4 compresses 32 bytes -> 6
  // bytes (1 header + 1 signs + 4 payload) at 1-byte headers.
  const BlockCodec codec(config_with(1, true, 8));
  EXPECT_EQ(codec.compressed_size(4), 6u);
  EXPECT_NEAR(32.0 / 6.0, 5.33, 0.01);
}

TEST(BlockCodec, RoundTripSmooth) {
  const BlockCodec codec(config_with(4));
  const auto data = test::smooth_signal(32);
  const f64 eps = 1e-3;
  std::vector<u8> stream;
  const BlockInfo info = codec.compress(data, eps, stream);
  EXPECT_FALSE(info.zero_block);
  EXPECT_EQ(stream.size(), info.compressed_bytes);

  std::vector<f32> back(32);
  const std::size_t consumed = codec.decompress(stream, eps, back);
  EXPECT_EQ(consumed, stream.size());
  EXPECT_LE(test::max_err(data, back), eps);
}

TEST(BlockCodec, ZeroBlockShortcut) {
  const BlockCodec codec(config_with(4));
  const std::vector<f32> zeros(32, 0.0f);
  std::vector<u8> stream;
  const BlockInfo info = codec.compress(zeros, 1e-2, stream);
  EXPECT_TRUE(info.zero_block);
  EXPECT_EQ(info.fixed_length, 0u);
  EXPECT_EQ(stream.size(), 4u);

  std::vector<f32> back(32);
  codec.decompress(stream, 1e-2, back);
  for (f32 v : back) EXPECT_EQ(v, 0.0f);
}

TEST(BlockCodec, NearZeroValuesBecomeZeroBlock) {
  // Values within eps of zero quantize to bin 0 -> zero block.
  const BlockCodec codec(config_with(4));
  std::vector<f32> tiny(32, 0.4e-2f);
  std::vector<u8> stream;
  const BlockInfo info = codec.compress(tiny, 1e-2, stream);
  EXPECT_TRUE(info.zero_block);
}

TEST(BlockCodec, ShortcutDisabledStillRoundTrips) {
  const BlockCodec codec(config_with(4, /*shortcut=*/false));
  const std::vector<f32> zeros(32, 0.0f);
  std::vector<u8> stream;
  const BlockInfo info = codec.compress(zeros, 1e-2, stream);
  EXPECT_FALSE(info.zero_block);
  EXPECT_EQ(info.fixed_length, 1u);  // explicit single zero plane
  std::vector<f32> back(32);
  codec.decompress(stream, 1e-2, back);
  for (f32 v : back) EXPECT_EQ(v, 0.0f);
}

TEST(BlockCodec, TruncatedStreamThrows) {
  const BlockCodec codec(config_with(4));
  const auto data = test::smooth_signal(32);
  std::vector<u8> stream;
  codec.compress(data, 1e-3, stream);
  std::vector<f32> back(32);
  EXPECT_THROW(
      codec.decompress(std::span<const u8>(stream.data(), stream.size() - 1),
                       1e-3, back),
      Error);
  EXPECT_THROW(codec.decompress(std::span<const u8>(stream.data(), 2), 1e-3,
                                back),
               Error);
}

TEST(BlockCodec, CorruptHeaderThrows) {
  const BlockCodec codec(config_with(4));
  std::vector<u8> bogus = {0xFF, 0xFF, 0xFF, 0xFF};
  std::vector<f32> back(32);
  EXPECT_THROW(codec.decompress(bogus, 1e-3, back), Error);
}

TEST(BlockCodec, HeaderGivesRecordSize) {
  const BlockCodec codec(config_with(4));
  const auto data = test::random_signal(32);
  std::vector<u8> stream;
  const BlockInfo info = codec.compress(data, 1e-4, stream);
  EXPECT_EQ(codec.read_header(stream), info.fixed_length);
  EXPECT_EQ(codec.compressed_size(codec.read_header(stream)), stream.size());
}

TEST(BlockCodec, InvalidConfigThrows) {
  EXPECT_THROW(BlockCodec(config_with(3)), Error);          // header width
  EXPECT_THROW(BlockCodec(config_with(4, true, 12)), Error);  // block size
  EXPECT_THROW(BlockCodec(config_with(4, true, 0)), Error);
}

// --- the block loop's record writer ----------------------------------------

/// Zero, constant, smooth, noisy and sparse stretches of whole blocks
/// over several of encode_blocks' batches, then a partial last block.
std::vector<f32> mixed_blocks(u32 L) {
  std::vector<f32> data;
  for (int round = 0; data.size() < 3 * 2048 + 5u * L; ++round) {
    data.insert(data.end(), 3 * L, 0.0f);
    data.insert(data.end(), 2 * L, 3.25f);
    const auto smooth = test::smooth_signal(7 * L, 3 + round);
    const auto noisy = test::random_signal(5 * L, 5 + round, -40.0, 40.0);
    const auto sparse = test::sparse_signal(6 * L, 7 + round, 0.1);
    data.insert(data.end(), smooth.begin(), smooth.end());
    data.insert(data.end(), noisy.begin(), noisy.end());
    data.insert(data.end(), sparse.begin(), sparse.end());
  }
  data.resize(data.size() + L / 2 + 3, 1.0f);
  return data;
}

/// The records of compress() on each block of `data` (the last one
/// zero-padded), concatenated.
std::vector<u8> per_block_records(const BlockCodec& codec,
                                  const std::vector<f32>& data, f64 eps) {
  const u32 L = codec.config().block_size;
  std::vector<u8> out;
  for (std::size_t begin = 0; begin < data.size(); begin += L) {
    std::vector<f32> block(L, 0.0f);
    std::copy_n(data.begin() + begin,
                std::min<std::size_t>(L, data.size() - begin), block.begin());
    codec.compress(block, eps, out);
  }
  return out;
}

/// Number of whole records at the front of `stream`, which must end on a
/// record boundary.
std::size_t count_records(const BlockCodec& codec,
                          std::span<const u8> stream) {
  std::size_t pos = 0;
  std::size_t records = 0;
  while (pos < stream.size()) {
    pos += codec.compressed_size(codec.read_header(stream.subspan(pos)));
    ++records;
  }
  EXPECT_EQ(pos, stream.size()) << "trailing partial record";
  return records;
}

TEST(BlockCodec, EncodeBlocksEqualsConcatenatedBlockRecords) {
  for (u32 L : {8u, 24u, 32u, 64u}) {
    const std::vector<f32> data = mixed_blocks(L);
    const u64 n_blocks = (data.size() + L - 1) / L;
    for (u32 header : {1u, 2u, 4u}) {
      for (bool zero : {false, true}) {
        for (bool constant : {false, true}) {
          CodecConfig cfg = config_with(header, zero, L);
          cfg.constant_block_shortcut = constant;
          const BlockCodec codec(cfg);
          const std::string what =
              "L=" + std::to_string(L) + " header=" + std::to_string(header) +
              " zero=" + std::to_string(zero) +
              " constant=" + std::to_string(constant);
          // Records append after whatever `out` already holds.
          std::vector<u8> out = {0xde, 0xad};
          StreamStats stats;
          ASSERT_TRUE(codec.encode_blocks(data, 1e-3, out, stats)) << what;
          std::vector<u8> expected = {0xde, 0xad};
          const std::vector<u8> records = per_block_records(codec, data, 1e-3);
          expected.insert(expected.end(), records.begin(), records.end());
          EXPECT_EQ(out, expected) << what;
          EXPECT_EQ(stats.total_blocks, n_blocks) << what;
          EXPECT_EQ(stats.zero_blocks > 0, zero) << what;
          EXPECT_EQ(stats.constant_blocks > 0, constant) << what;
        }
      }
    }
  }
}

TEST(BlockCodec, StopMidCallLeavesWholeRecordsAndNoStats) {
  const BlockCodec codec(config_with(4));
  const std::vector<f32> data = mixed_blocks(32);
  std::vector<u8> full;
  StreamStats full_stats;
  ASSERT_TRUE(codec.encode_blocks(data, 1e-3, full, full_stats));

  int polls = 0;
  std::vector<u8> out;
  StreamStats stats;
  EXPECT_FALSE(codec.encode_blocks(data, 1e-3, out, stats,
                                   [&] { return ++polls > 2; }));
  // Two batches were written, each of 2048 elements (64 blocks), before
  // the third poll stopped the loop.
  EXPECT_EQ(polls, 3);
  EXPECT_EQ(count_records(codec, out), 2u * 64);
  ASSERT_LT(out.size(), full.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), full.begin()));
  EXPECT_EQ(stats.total_blocks, 0u);
}

TEST(BlockCodec, ThrowMidCallLeavesWholeRecordsAndNoStats) {
  constexpr f32 kNaN = std::numeric_limits<f32>::quiet_NaN();
  for (u32 header : {1u, 4u}) {
    const BlockCodec codec(config_with(header));
    std::vector<f32> data = mixed_blocks(32);
    // Block 100 (inside the second batch) cannot be quantized.
    data[100 * 32 + 5] = kNaN;
    std::vector<u8> out = {0x42};
    StreamStats stats;
    EXPECT_THROW(codec.encode_blocks(data, 1e-3, out, stats), Error);
    EXPECT_EQ(stats.total_blocks, 0u);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], 0x42);
    // What is left is exactly the records of blocks 0..99.
    const std::vector<f32> before(data.begin(), data.begin() + 100 * 32);
    const std::vector<u8> records = per_block_records(codec, before, 1e-3);
    EXPECT_TRUE(std::equal(out.begin() + 1, out.end(), records.begin(),
                           records.end()))
        << "header=" << header;

    // The single-block writer leaves `out` as it was.
    const std::vector<u8> kept = out;
    const std::vector<f32> bad(data.begin() + 100 * 32,
                               data.begin() + 101 * 32);
    EXPECT_THROW(codec.compress(bad, 1e-3, out), Error);
    EXPECT_EQ(out, kept);
  }
}

struct RoundTripCase {
  f64 eps;
  u64 seed;
  const char* kind;
};

class BlockRoundTrip
    : public ::testing::TestWithParam<std::tuple<f64, int>> {};

TEST_P(BlockRoundTrip, ErrorBoundHolds) {
  const auto [eps, kind] = GetParam();
  std::vector<f32> data;
  switch (kind) {
    case 0: data = test::smooth_signal(32); break;
    case 1: data = test::random_signal(32, 5, -30.0, 30.0); break;
    case 2: data = test::sparse_signal(32, 9, 0.2); break;
    default: data.assign(32, -7.25f); break;  // constant block
  }
  for (u32 header : {1u, 2u, 4u}) {
    const BlockCodec codec(config_with(header));
    std::vector<u8> stream;
    codec.compress(data, eps, stream);
    std::vector<f32> back(32);
    const std::size_t consumed = codec.decompress(stream, eps, back);
    EXPECT_EQ(consumed, stream.size());
    // Exact up to f32 output representation (half an ulp).
    EXPECT_LE(test::max_err(data, back), eps + test::f32_ulp_slack(data))
        << "kind=" << kind << " header=" << header << " eps=" << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockRoundTrip,
    ::testing::Combine(::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace ceresz::core

#include "core/flenc.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace ceresz::core {
namespace {

TEST(Flenc, SignSplitAndReapply) {
  const std::vector<i32> in = {0, -1, 2, -3, 4, -5, 6, -7};
  std::vector<u32> absv(8);
  std::vector<u8> signs(1);
  split_sign(in, absv, signs);
  EXPECT_EQ(absv, (std::vector<u32>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Negative at indices 1,3,5,7 -> bits 0b10101010.
  EXPECT_EQ(signs[0], 0xAA);

  std::vector<i32> back(8);
  apply_sign(absv, signs, back);
  EXPECT_EQ(back, in);
}

TEST(Flenc, BlockMax) {
  EXPECT_EQ(block_max(std::vector<u32>{}), 0u);
  EXPECT_EQ(block_max(std::vector<u32>{3, 8, 1}), 8u);
}

TEST(Flenc, EffectiveBits) {
  EXPECT_EQ(effective_bits(0), 0u);
  EXPECT_EQ(effective_bits(1), 1u);
  EXPECT_EQ(effective_bits(7), 3u);
  EXPECT_EQ(effective_bits(8), 4u);  // paper: max 8 stored in four bits
  EXPECT_EQ(effective_bits(0xFFFFFFFFu), 32u);
}

TEST(Flenc, PaperFigure8Example) {
  // Figure 5(b)/8: block {8,-7,2,0,-3,4,2,1}, max abs 8 -> fl 4.
  const std::vector<i32> in = {8, -7, 2, 0, -3, 4, 2, 1};
  std::vector<u32> absv(8);
  std::vector<u8> signs(1);
  split_sign(in, absv, signs);
  EXPECT_EQ(block_max(absv), 8u);
  EXPECT_EQ(effective_bits(8), 4u);

  std::vector<u8> planes(4);  // 4 planes x 1 byte for L = 8
  bit_shuffle(absv, 4, planes);
  // Plane 0 (bit 0 of 8,7,2,0,3,4,2,1) = 0,1,0,0,1,0,0,1 -> 0b10010010.
  EXPECT_EQ(planes[0], 0x92);
  // Plane 3 (bit 3) only of value 8 (index 0) -> 0b00000001.
  EXPECT_EQ(planes[3], 0x01);

  std::vector<u32> back(8);
  bit_unshuffle(planes, 4, back);
  EXPECT_EQ(back, absv);
}

TEST(Flenc, NonMultipleOf8Throws) {
  std::vector<i32> in(7);
  std::vector<u32> absv(7);
  std::vector<u8> signs(1);
  EXPECT_THROW(split_sign(in, absv, signs), Error);
}

TEST(Flenc, WrongBufferSizesThrow) {
  std::vector<u32> absv(8);
  std::vector<u8> small(3);
  EXPECT_THROW(bit_shuffle(absv, 4, small), Error);
  std::vector<u32> out(8);
  EXPECT_THROW(bit_unshuffle(small, 4, out), Error);
}

TEST(Flenc, Int32MinimumMagnitudeIsExact) {
  // |INT32_MIN| overflows i32 but split_sign widens internally.
  const std::vector<i32> in = {std::numeric_limits<i32>::min(), 0, 0, 0,
                               0, 0, 0, 0};
  std::vector<u32> absv(8);
  std::vector<u8> signs(1);
  split_sign(in, absv, signs);
  EXPECT_EQ(absv[0], 2147483648u);
}

// Property: shuffle/unshuffle round trip across fixed lengths.
class ShuffleRoundTrip : public ::testing::TestWithParam<u32> {};

TEST_P(ShuffleRoundTrip, Holds) {
  const u32 fl = GetParam();
  Rng rng(fl + 100);
  std::vector<u32> absv(64);
  const u32 mask = fl >= 32 ? 0xFFFFFFFFu : ((1u << fl) - 1);
  for (auto& v : absv) v = static_cast<u32>(rng.next_u64()) & mask;
  std::vector<u8> planes(fl * 8);
  bit_shuffle(absv, fl, planes);
  std::vector<u32> back(64);
  bit_unshuffle(planes, fl, back);
  EXPECT_EQ(back, absv);
}

INSTANTIATE_TEST_SUITE_P(FixedLengths, ShuffleRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 12, 13, 16, 17,
                                           24, 31, 32));

}  // namespace
}  // namespace ceresz::core

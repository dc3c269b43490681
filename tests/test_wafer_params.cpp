// Parameter sweep of the wafer mapping: block sizes, header widths and the
// zero-block shortcut round-trip through the simulated fabric, and the
// simulated stream and decompressed values stay bit-identical to the host
// codec's under every configuration.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/stream_codec.h"
#include "mapping/wafer_mapper.h"
#include "test_util.h"

namespace ceresz::mapping {
namespace {

/// A smooth signal with every third block all zero.
std::vector<f32> with_zero_blocks(u32 block_size, std::size_t n) {
  auto data = test::smooth_signal(n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    if (i / block_size % 3 == 1) data[i] = 0.0f;
  }
  return data;
}

class WaferParamSweep
    : public ::testing::TestWithParam<std::tuple<u32, u32, u32, bool>> {};

TEST_P(WaferParamSweep, StreamIdentityAndRoundTrip) {
  const auto [block_size, header_bytes, pl, zero_shortcut] = GetParam();
  core::CodecConfig codec;
  codec.block_size = block_size;
  codec.header_bytes = header_bytes;
  codec.zero_block_shortcut = zero_shortcut;

  MapperOptions opt;
  opt.rows = 1;
  opt.cols = 2 * pl;
  opt.pipeline_length = pl;
  opt.codec = codec;
  const WaferMapper mapper(opt);
  const core::StreamCodec host(codec);
  const core::ErrorBound bound = core::ErrorBound::relative(1e-3);

  const std::size_t n = block_size * 12;
  for (const auto& data :
       {test::smooth_signal(n, 7), with_zero_blocks(block_size, n)}) {
    const std::string where = "L=" + std::to_string(block_size) +
                              " hb=" + std::to_string(header_bytes) +
                              " pl=" + std::to_string(pl) +
                              " zero_shortcut=" +
                              std::to_string(zero_shortcut);
    const auto wafer = mapper.compress(data, bound);
    const auto host_result = host.compress(data, bound);
    EXPECT_EQ(wafer.stream, host_result.stream) << where;

    const auto decomp = mapper.decompress(wafer.stream);
    const auto host_values = host.decompress(wafer.stream);
    ASSERT_EQ(decomp.output.size(), data.size()) << where;
    ASSERT_EQ(host_values.size(), data.size()) << where;
    EXPECT_EQ(std::memcmp(decomp.output.data(), host_values.data(),
                          data.size() * sizeof(f32)),
              0)
        << where;
    EXPECT_LE(test::max_err(data, decomp.output),
              wafer.eps_abs + test::f32_ulp_slack(data))
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaferParamSweep,
    ::testing::Combine(::testing::Values(16u, 32u, 64u, 128u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Bool()));

TEST(WaferParams, LinkContentionConfigStillRoundTrips) {
  // The contention model changes timing, never bytes.
  MapperOptions opt;
  opt.rows = 1;
  opt.cols = 6;
  opt.wse.model_link_contention = true;
  const WaferMapper mapper(opt);
  const auto data = test::smooth_signal(32 * 24, 9);
  const auto wafer = mapper.compress(data, core::ErrorBound::relative(1e-3));

  MapperOptions plain = opt;
  plain.wse.model_link_contention = false;
  const auto wafer_plain =
      WaferMapper(plain).compress(data, core::ErrorBound::relative(1e-3));
  EXPECT_EQ(wafer.stream, wafer_plain.stream);
  // Contention can only slow the fabric down.
  EXPECT_GE(wafer.makespan, wafer_plain.makespan);
}

TEST(WaferParams, IngressRateNeverChangesBytes) {
  MapperOptions fast;
  fast.rows = 1;
  fast.cols = 4;
  MapperOptions slow = fast;
  slow.ingress_cycles_per_wavelet = 32.0;
  const auto data = test::smooth_signal(32 * 16, 11);
  const auto bound = core::ErrorBound::relative(1e-3);
  const auto a = WaferMapper(fast).compress(data, bound);
  const auto b = WaferMapper(slow).compress(data, bound);
  EXPECT_EQ(a.stream, b.stream);
  EXPECT_GT(b.makespan, a.makespan);
}

}  // namespace
}  // namespace ceresz::mapping

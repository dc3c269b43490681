// Differential tests of the host kernel tables: every AVX2 kernel, and the
// SSE4.2 CRC32C, against the scalar reference. Both must give identical
// bytes and raise identical errors on every input, including hostile
// streams. The AVX2 cases skip on hosts without AVX2.
#include "core/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "common/checksum.h"
#include "common/error.h"
#include "common/isa.h"
#include "common/rng.h"
#include "core/stream_codec.h"
#include "test_util.h"

namespace ceresz::core {
namespace {

/// What one kernel call produced: its output bytes, or its error.
struct Outcome {
  std::vector<u8> bytes;
  std::string error;
};

template <class T>
std::vector<u8> bytes_of(const std::vector<T>& v) {
  std::vector<u8> out(v.size() * sizeof(T));
  if (!v.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

using KernelRun = std::function<std::vector<u8>(const KernelTable&)>;

Outcome run_on(const KernelTable& table, const KernelRun& fn) {
  Outcome o;
  try {
    o.bytes = fn(table);
  } catch (const Error& e) {
    o.error = e.what();
  }
  return o;
}

/// Runs `fn` on both tables, expects identical outcomes and returns the
/// scalar one.
Outcome expect_same(const KernelRun& fn, const std::string& what) {
  const Outcome ref = run_on(scalar_kernels(), fn);
  const Outcome simd = run_on(*avx2_kernels(), fn);
  EXPECT_EQ(ref.error, simd.error) << what;
  EXPECT_TRUE(ref.bytes == simd.bytes) << what << ": outputs differ";
  return ref;
}

class KernelDiff : public ::testing::Test {
 protected:
  void SetUp() override {
    if (avx2_kernels() == nullptr) GTEST_SKIP() << "host lacks AVX2";
  }
};

/// Integral f32 values whose quantized residuals (at eps 0.5, where
/// prequant is rounding) have bit width exactly `fl`.
void fill_block_with_fl(f32* out, u32 n, u32 fl, Rng& rng) {
  if (fl == 0) {
    std::fill(out, out + n, 0.0f);
    return;
  }
  if (fl == 32) {
    // Residual INT32_MIN first, then steps between negative values.
    out[0] = -2147483648.0f;
    for (u32 j = 1; j < n; ++j) {
      out[j] = std::floor(
          static_cast<f32>(-1.0 - static_cast<f64>(rng.next_below(1u << 31))));
    }
    return;
  }
  // Alternate 0 and ±a: every residual is ±a, and a's low bits are masked
  // so that it is exact in f32.
  const u32 mask = fl > 24 ? ~((1u << (fl - 24)) - 1) : ~0u;
  for (u32 j = 0; j < n; ++j) {
    u32 a = 0;
    if (j % 2 == 1) {
      a = static_cast<u32>(rng.next_below(u64{1} << fl));
      if (j == 1) a |= 1u << (fl - 1);
      a &= mask;
    }
    const f64 v = rng.next_below(2) == 0 ? a : -static_cast<f64>(a);
    out[j] = static_cast<f32>(v);
  }
}

std::vector<f32> edge_values() {
  const f32 inf = std::numeric_limits<f32>::infinity();
  return {0.0f,          -0.0f,          0.5f,         -0.5f,
          1.5f,          -1.5f,          2147483520.0f, -2147483648.0f,
          2147483648.0f, -2147483904.0f, 1e-30f,        -1e-30f,
          3.4e38f,       -3.4e38f,       inf,           -inf,
          std::numeric_limits<f32>::quiet_NaN(),
          std::numeric_limits<f32>::denorm_min()};
}

TEST_F(KernelDiff, Prequant) {
  Rng rng(1);
  const std::vector<f64> two_eps = {1.0, 2.0, 0.5, 2e-3, 1e-7, 3.0e-5};
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 100u, 4099u}) {
    for (f64 te : two_eps) {
      std::vector<f32> x(n);
      for (auto& v : x) v = static_cast<f32>(rng.uniform(-1e3, 1e3) * te);
      expect_same(
          [&](const KernelTable& k) {
            std::vector<i32> q(n);
            k.prequant(x.data(), q.data(), n, te);
            return bytes_of(q);
          },
          "prequant n=" + std::to_string(n));
    }
  }
  // Range edges and non-finite values at every position of a vector and
  // of the scalar tail: each errs (or not) identically.
  const std::vector<f32> edges = edge_values();
  for (f32 e : edges) {
    for (std::size_t at : {0u, 3u, 7u, 8u, 15u, 16u, 18u}) {
      std::vector<f32> x(19, 1.0f);
      x[at] = e;
      expect_same(
          [&](const KernelTable& k) {
            std::vector<i32> q(x.size());
            k.prequant(x.data(), q.data(), x.size(), 1.0);
            return bytes_of(q);
          },
          "prequant edge " + std::to_string(e) + " at " + std::to_string(at));
    }
  }
  EXPECT_FALSE(expect_same(
                   [](const KernelTable& k) {
                     const f32 x[8] = {0, 0, 0,
                                       std::numeric_limits<f32>::quiet_NaN()};
                     i32 q[8];
                     k.prequant(x, q, 8, 1.0);
                     return std::vector<u8>{};
                   },
                   "NaN")
                   .error.empty());
}

/// lo and hi compare equal (only a zero's sign may differ, or both are
/// NaN) and hi - lo, the value range ε is resolved from, is bit-identical.
void expect_same_bounds(const f32* in, std::size_t n, const std::string& what) {
  const ValueBounds ref = scalar_kernels().value_bounds(in, n);
  const ValueBounds simd = avx2_kernels()->value_bounds(in, n);
  const auto same = [](f32 a, f32 b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  EXPECT_TRUE(same(ref.lo, simd.lo)) << what << ": lo " << ref.lo << " vs "
                                     << simd.lo;
  EXPECT_TRUE(same(ref.hi, simd.hi)) << what << ": hi " << ref.hi << " vs "
                                     << simd.hi;
  EXPECT_EQ(std::bit_cast<u64>(ref.range()), std::bit_cast<u64>(simd.range()))
      << what;
}

TEST_F(KernelDiff, ValueBounds) {
  constexpr f32 kNaN = std::numeric_limits<f32>::quiet_NaN();
  constexpr f32 kInf = std::numeric_limits<f32>::infinity();
  constexpr f32 kDenorm = std::numeric_limits<f32>::denorm_min();
  Rng rng(7);
  // Every length 0..100 at every start alignment of a 32-byte vector.
  std::vector<f32> buf(100 + 8);
  for (auto& v : buf) v = static_cast<f32>(rng.uniform(-1e3, 1e3));
  for (std::size_t n = 0; n <= 100; ++n) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      expect_same_bounds(buf.data() + offset, n,
                         "n=" + std::to_string(n) + "@" +
                             std::to_string(offset));
    }
  }
  // A whole field, with its extremes in the vector body and the tail.
  std::vector<f32> field = test::smooth_signal((1u << 20) + 13, 8);
  field[777] = -12345.5f;
  field[field.size() - 2] = 54321.25f;
  expect_same_bounds(field.data(), field.size(), "field");
  EXPECT_EQ(value_bounds(field, scalar_kernels()).lo, -12345.5f);
  EXPECT_EQ(value_bounds(field, scalar_kernels()).hi, 54321.25f);
  // The dispatched table is the one value_bounds() runs by default.
  EXPECT_EQ(std::bit_cast<u64>(value_bounds(field).range()),
            std::bit_cast<u64>(value_bounds(field, kernels()).range()));

  // Non-finite, signed-zero and denormal values at index 0, in a vector
  // lane and in the tail, on random values, signed zeros and denormals.
  const auto background = [&](int kind) {
    std::vector<f32> x(70);
    for (auto& v : x) {
      const bool negative = rng.next_below(2) == 0;
      if (kind == 0) v = static_cast<f32>(rng.uniform(-2, 2));
      if (kind == 1) v = negative ? -0.0f : 0.0f;
      if (kind == 2) v = negative ? -kDenorm : kDenorm;
    }
    return x;
  };
  for (f32 e : {kNaN, -kNaN, kInf, -kInf, 0.0f, -0.0f, kDenorm, -kDenorm}) {
    for (int kind : {0, 1, 2}) {
      for (std::size_t at : {0u, 1u, 7u, 8u, 31u, 32u, 40u, 69u}) {
        std::vector<f32> x = background(kind);
        x[at] = e;
        const std::string what = "edge " + std::to_string(e) +
                                 " on background " + std::to_string(kind) +
                                 " at " + std::to_string(at);
        expect_same_bounds(x.data(), x.size(), what);
        // A NaN at in[0] makes both bounds NaN; anywhere else it is
        // skipped.
        const ValueBounds b = avx2_kernels()->value_bounds(x.data(), x.size());
        EXPECT_EQ(std::isnan(b.lo), std::isnan(e) && at == 0) << what;
        EXPECT_EQ(std::isnan(b.hi), std::isnan(e) && at == 0) << what;
      }
    }
  }
  const std::vector<f32> constant(1000, -7.25f);
  expect_same_bounds(constant.data(), constant.size(), "constant");
  EXPECT_EQ(value_bounds(constant).range(), 0.0);
  EXPECT_EQ(value_bounds(std::span<const f32>{}).range(), 0.0);
}

TEST_F(KernelDiff, FusedBlockKernelsWithLorenzoOverflowAnywhere) {
  // encode_block and decode_block carry the AVX2 Lorenzo difference and
  // prefix sum. Residuals with an overflow (or a boundary that just fits)
  // anywhere must give the same bytes or the same error.
  Rng rng(2);
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  const KernelTable& ref = scalar_kernels();
  int encode_errors = 0, decode_errors = 0, trials = 0;
  for (std::size_t n : {8u, 32u, 64u, 96u}) {
    for (int trial = 0; trial < 30; ++trial, ++trials) {
      std::vector<i32> r(n);
      const u64 span = trial < 15 ? 1000 : u64{1} << 32;
      for (auto& v : r) {
        v = static_cast<i32>(static_cast<i64>(rng.next_below(span)) -
                             static_cast<i64>(span / 2));
      }
      if (trial % 3 == 0) {
        const std::size_t at = trial == 0 ? 0 : rng.next_below(n);
        r[at] = trial % 2 == 0 ? kMin : kMax;
        if (at + 1 < n) r[at + 1] = trial % 2 == 0 ? kMax : kMin;
      }
      const std::string what =
          "n=" + std::to_string(n) + " trial " + std::to_string(trial);

      // Encode: r as quantized values (two_eps 1 rounds integral input),
      // kept inside prequant's range so only Lorenzo can fail.
      std::vector<f32> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = std::min(static_cast<f32>(r[i]), 2147483520.0f);
      }
      encode_errors += !expect_same(
                             [&](const KernelTable& k) {
                               std::vector<u32> abs(n);
                               std::vector<u8> signs(n / 8);
                               const u32 bits = k.encode_block(
                                   x.data(), n, 1.0, abs.data(), signs.data());
                               std::vector<u8> out = bytes_of(abs);
                               out.insert(out.end(), signs.begin(),
                                          signs.end());
                               const auto b = bytes_of(std::vector<u32>{bits});
                               out.insert(out.end(), b.begin(), b.end());
                               return out;
                             },
                             "encode_block " + what)
                             .error.empty();

      // Decode: r as residuals, written as 32 planes by the reference.
      std::vector<u32> abs(n);
      std::vector<u8> signs(n / 8);
      std::vector<u8> planes(n / 8 * 32);
      ref.split_sign(r.data(), abs.data(), signs.data(), n);
      ref.bit_shuffle(abs.data(), n, 32, planes.data());
      decode_errors += !expect_same(
                             [&](const KernelTable& k) {
                               std::vector<f32> out(n);
                               k.decode_block(signs.data(), planes.data(), 32,
                                              n, 1.0, out.data());
                               return bytes_of(out);
                             },
                             "decode_block " + what)
                             .error.empty();
    }
  }
  // Both outcomes occur, so the overflow checks were really exercised.
  EXPECT_GT(encode_errors, 0);
  EXPECT_LT(encode_errors, trials);
  EXPECT_GT(decode_errors, 0);
  EXPECT_LT(decode_errors, trials);
}

TEST_F(KernelDiff, SignsPlanesAndMaxForEveryLengthAndBlockSize) {
  Rng rng(3);
  for (std::size_t n : {8u, 16u, 24u, 32u, 64u, 8192u}) {
    for (u32 fl = 0; fl <= 32; ++fl) {
      std::vector<i32> v(n);
      for (auto& x : v) {
        const u32 mag = fl == 0 ? 0
                                : static_cast<u32>(rng.next_below(u64{1} << fl));
        x = static_cast<i32>(rng.next_below(2) == 0 ? mag : 0u - mag);
      }
      if (fl == 32) v[n / 2] = std::numeric_limits<i32>::min();
      const std::string what =
          "n=" + std::to_string(n) + " fl=" + std::to_string(fl);
      const Outcome split = expect_same(
          [&](const KernelTable& k) {
            std::vector<u32> abs(n);
            std::vector<u8> signs(n / 8);
            k.split_sign(v.data(), abs.data(), signs.data(), n);
            std::vector<u8> out = bytes_of(abs);
            out.insert(out.end(), signs.begin(), signs.end());
            return out;
          },
          "split_sign " + what);
      std::vector<u32> abs(n);
      std::memcpy(abs.data(), split.bytes.data(), n * sizeof(u32));
      const u8* signs = split.bytes.data() + n * sizeof(u32);
      std::vector<i32> back(n);
      scalar_kernels().apply_sign(abs.data(), signs, back.data(), n);
      EXPECT_EQ(back, v) << what;
      expect_same(
          [&](const KernelTable& k) {
            return bytes_of(std::vector<u32>{k.block_max(abs.data(), n),
                                             k.block_max(abs.data(), n - 3)});
          },
          "block_max " + what);
      const Outcome planes = expect_same(
          [&](const KernelTable& k) {
            std::vector<u8> out(n / 8 * fl, 0xa5);
            k.bit_shuffle(abs.data(), n, fl, out.data());
            return out;
          },
          "bit_shuffle " + what);
      expect_same(
          [&](const KernelTable& k) {
            std::vector<u32> back(n, 0xdeadbeef);
            k.bit_unshuffle(planes.bytes.data(), n, fl, back.data());
            EXPECT_EQ(back, abs) << what;
            return bytes_of(back);
          },
          "bit_unshuffle " + what);
    }
  }
}

/// Every CodecConfig combination at one block size.
std::vector<CodecConfig> all_configs(u32 block_size) {
  std::vector<CodecConfig> out;
  for (u32 header : {1u, 2u, 4u}) {
    for (bool zero : {false, true}) {
      for (bool constant : {false, true}) {
        CodecConfig cfg;
        cfg.block_size = block_size;
        cfg.header_bytes = header;
        cfg.zero_block_shortcut = zero;
        cfg.constant_block_shortcut = constant;
        out.push_back(cfg);
      }
    }
  }
  return out;
}

std::string describe(const CodecConfig& cfg) {
  return "L=" + std::to_string(cfg.block_size) +
         " header=" + std::to_string(cfg.header_bytes) +
         " zero=" + std::to_string(cfg.zero_block_shortcut) +
         " constant=" + std::to_string(cfg.constant_block_shortcut);
}

/// Compress with one table, then decompress with the same table; the
/// stream bytes and the decoded bytes make up the outcome.
KernelRun stream_round_trip(const CodecConfig& cfg,
                            const std::vector<f32>& data, ErrorBound bound) {
  return [cfg, &data, bound](const KernelTable& k) {
    const StreamCodec codec(cfg, k);
    const CompressionResult r = codec.compress(data, bound);
    std::vector<u8> out = r.stream;
    const std::vector<u8> back = bytes_of(codec.decompress(r.stream));
    out.insert(out.end(), back.begin(), back.end());
    return out;
  };
}

TEST_F(KernelDiff, StreamCodecEveryConfigBlockSizeAndFixedLength) {
  Rng rng(4);
  for (u32 L : {8u, 16u, 24u, 32u, 64u, 8192u}) {
    // Blocks of every fixed length 0..32, then smooth, noisy, sparse and
    // constant stretches, and a partial tail block.
    std::vector<f32> data(33 * L);
    for (u32 fl = 0; fl <= 32; ++fl) {
      fill_block_with_fl(data.data() + fl * L, L, fl, rng);
    }
    std::vector<f32> mixed = test::smooth_signal(3 * L + 5, 9);
    const auto noisy = test::random_signal(2 * L, 10, -50.0, 50.0);
    const auto sparse = test::sparse_signal(4 * L, 11);
    mixed.insert(mixed.end(), noisy.begin(), noisy.end());
    mixed.insert(mixed.end(), sparse.begin(), sparse.end());
    mixed.insert(mixed.end(), 2 * L, 3.25f);
    mixed.insert(mixed.end(), 7, -1.0f);

    for (const CodecConfig& cfg : all_configs(L)) {
      const std::string what = describe(cfg);
      const Outcome o = expect_same(
          stream_round_trip(cfg, data, ErrorBound::absolute(0.5)),
          "fixed lengths " + what);
      ASSERT_TRUE(o.error.empty()) << what << ": " << o.error;
      expect_same(stream_round_trip(cfg, mixed, ErrorBound::relative(1e-3)),
                  "mixed REL " + what);
      expect_same(stream_round_trip(cfg, mixed, ErrorBound::absolute(1e-6)),
                  "mixed tight ABS " + what);
    }
    // The fixed-length blocks really cover fl 0..32.
    CodecConfig cfg;
    cfg.block_size = L;
    const StreamStats stats =
        StreamCodec(cfg, scalar_kernels())
            .compress(data, ErrorBound::absolute(0.5))
            .stats;
    for (u32 fl = 0; fl <= 32; ++fl) {
      EXPECT_GT(stats.fl_histogram[fl], 0u) << "L=" << L << " fl=" << fl;
    }
  }
}

TEST_F(KernelDiff, EpsilonNearTheDataUlp) {
  // Magnitudes where eps approaches the f32 spacing of the data, the
  // regime in which dequantization rounding dominates the error.
  struct Regime {
    f64 magnitude;
    f64 eps;
  };
  for (const Regime r : {Regime{1e3, 5e-3}, Regime{1e5, 0.01},
                         Regime{1e6, 0.1}, Regime{1e6, 0.0625}}) {
    std::vector<f32> data = test::smooth_signal(4096 + 19, 21, 0.3);
    for (auto& v : data) v = static_cast<f32>(v * r.magnitude);
    for (const CodecConfig& cfg : all_configs(32)) {
      expect_same(stream_round_trip(cfg, data, ErrorBound::absolute(r.eps)),
                  "magnitude " + std::to_string(r.magnitude) + " " +
                      describe(cfg));
    }
  }
}

TEST_F(KernelDiff, RejectedInputsRaiseTheSameError) {
  constexpr f32 kNaN = std::numeric_limits<f32>::quiet_NaN();
  constexpr f32 kInf = std::numeric_limits<f32>::infinity();
  std::vector<std::vector<f32>> inputs;
  for (f32 bad : {kNaN, kInf, -kInf, 1e30f}) {
    for (std::size_t at : {0u, 5u, 31u, 40u}) {
      std::vector<f32> v = test::smooth_signal(70, 3);
      v[at] = bad;
      inputs.push_back(v);
    }
  }
  // Lorenzo overflow: neighbours quantizing to +2^31-128 and -2^31.
  for (std::size_t at : {0u, 6u, 7u, 8u, 30u, 31u, 62u}) {
    std::vector<f32> v(64, 0.0f);
    v[at] = 2147483520.0f;
    v[at + 1] = -2147483648.0f;
    inputs.push_back(v);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (const CodecConfig& cfg : all_configs(32)) {
      const Outcome o = expect_same(
          stream_round_trip(cfg, inputs[i], ErrorBound::absolute(0.5)),
          "input " + std::to_string(i) + " " + describe(cfg));
      EXPECT_FALSE(o.error.empty()) << "input " << i << " was accepted";
    }
  }
}

TEST_F(KernelDiff, HostileRecordsDecodeIdentically) {
  Rng rng(5);
  for (u32 L : {8u, 32u, 64u}) {
    for (const CodecConfig& cfg : all_configs(L)) {
      const std::vector<f32> data = test::random_signal(5 * L + 3, 6, -1e4, 1e4);
      // The block records alone: a container's CRC would reject every
      // flip before a kernel ran, so the flips go straight to the loop.
      std::vector<u8> records;
      StreamStats stats;
      BlockCodec(cfg, scalar_kernels())
          .encode_blocks(data, 0.01, records, stats);
      for (int trial = 0; trial < 60; ++trial) {
        std::vector<u8> bad = records;
        const int flips = 1 + static_cast<int>(rng.next_below(4));
        for (int f = 0; f < flips; ++f) {
          bad[rng.next_below(bad.size())] ^=
              static_cast<u8>(1u + rng.next_below(255));
        }
        if (trial % 10 == 0) bad.resize(bad.size() - 1 - rng.next_below(20));
        expect_same(
            [&](const KernelTable& k) {
              std::vector<f32> out(data.size());
              const auto consumed =
                  BlockCodec(cfg, k).decode_blocks(bad, 0.01, out);
              std::vector<u8> result = bytes_of(out);
              const auto used = bytes_of(std::vector<u64>{*consumed});
              result.insert(result.end(), used.begin(), used.end());
              return result;
            },
            "hostile trial " + std::to_string(trial) + " " + describe(cfg));
      }
    }
  }
  // A record whose magnitudes make the prefix sum overflow, at each lane.
  for (u32 lane : {0u, 1u, 7u, 8u, 31u}) {
    const BlockCodec scalar_codec(CodecConfig{}, scalar_kernels());
    std::vector<u8> record = {32, 0, 0, 0, 0, 0, 0, 0};  // fl 32, positive
    record.resize(scalar_codec.compressed_size(32), 0);
    // Element `lane` and `lane - 1` (or 1) get magnitude 2^31 - 1.
    for (u32 k = 0; k < 31; ++k) {
      for (u32 j : {lane, lane == 0 ? 1u : lane - 1}) {
        record[8 + k * 4 + j / 8] |= static_cast<u8>(1u << (j % 8));
      }
    }
    const Outcome o = expect_same(
        [&](const KernelTable& k) {
          std::vector<f32> out(32);
          BlockCodec(CodecConfig{}, k).decompress(record, 0.5, out);
          return bytes_of(out);
        },
        "prefix overflow lane " + std::to_string(lane));
    EXPECT_NE(o.error.find("lorenzo_inverse"), std::string::npos) << o.error;
  }
}

TEST(KernelDispatch, ActiveTableMatchesTheHost) {
  const KernelTable& active = kernels();
  EXPECT_STREQ(active.isa, to_string(host_isa()));
  EXPECT_STREQ(scalar_kernels().isa, "scalar");
  if (host_isa() == HostIsa::kAvx2) {
    EXPECT_EQ(&active, avx2_kernels());
  } else {
    EXPECT_EQ(avx2_kernels(), nullptr);
    EXPECT_EQ(&active, &scalar_kernels());
  }
}

TEST(HardwareCrc, MatchesPortableTable) {
  if (host_isa() != HostIsa::kAvx2) GTEST_SKIP() << "host lacks SSE4.2";
  Rng rng(6);
  std::vector<u8> buf(4096 + 13);
  for (auto& b : buf) b = static_cast<u8>(rng.next_u64());
  for (std::size_t len = 0; len < 300; ++len) {
    for (std::size_t offset : {0u, 1u, 3u, 7u}) {
      const std::span<const u8> s(buf.data() + offset, len);
      const u32 seed = static_cast<u32>(rng.next_u64());
      ASSERT_EQ(crc32c_sse42(s), crc32c_portable(s)) << len << "@" << offset;
      ASSERT_EQ(crc32c_sse42(s, seed), crc32c_portable(s, seed)) << len;
    }
  }
  EXPECT_EQ(crc32c_sse42(buf), crc32c_portable(buf));
  // The dispatched function takes the hardware path on this host.
  EXPECT_EQ(crc32c(buf), crc32c_sse42(buf));
}

}  // namespace
}  // namespace ceresz::core

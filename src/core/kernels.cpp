#include "core/kernels.h"

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/isa.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ceresz::core {

namespace {

// The quantization arithmetic runs in double precision so the ε guarantee
// of Section 3 is exact even at extreme magnitude ratios; the stored
// quantized values are 32-bit integers as on the PE.
constexpr f64 kMinQuant = -2147483648.0;
constexpr f64 kMaxQuant = 2147483647.0;

// One raise site per error, shared by both tables, so that both throw
// the same message.
void check_prequant(bool ok) {
  CERESZ_CHECK(ok,
               "prequant: quantized value exceeds 32 bits; the error bound "
               "is too small for this data's magnitude");
}

void check_lorenzo_forward(bool ok) {
  CERESZ_CHECK(ok, "lorenzo_forward: difference overflows 32 bits");
}

void check_lorenzo_inverse(bool ok) {
  CERESZ_CHECK(ok, "lorenzo_inverse: prefix sum overflows 32 bits");
}

bool fits_i32(i64 v) { return v >= INT32_MIN && v <= INT32_MAX; }

namespace scalar {

// Reports range failures instead of raising them, so the AVX2 prequant
// can finish its tail with it and still raise once.
bool quantize(const f32* in, i32* out, std::size_t n, f64 two_eps) {
  const f64 recip = 1.0 / two_eps;
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const f64 rounded = std::floor(static_cast<f64>(in[i]) * recip + 0.5);
    const bool fits = rounded >= kMinQuant && rounded <= kMaxQuant;
    ok &= fits;
    out[i] = fits ? static_cast<i32>(rounded) : 0;
  }
  return ok;
}

void prequant(const f32* in, i32* out, std::size_t n, f64 two_eps) {
  check_prequant(quantize(in, out, n, two_eps));
}

void dequant(const i32* in, f32* out, std::size_t n, f64 two_eps) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<f32>(static_cast<f64>(in[i]) * two_eps);
  }
}

// Checked per element: along the carried dependency, a predictable branch
// costs no more than folding the check into a flag.
void lorenzo_forward(const i32* in, i32* out, std::size_t n) {
  i32 prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const i32 cur = in[i];
    const i64 diff = static_cast<i64>(cur) - prev;
    check_lorenzo_forward(fits_i32(diff));
    out[i] = static_cast<i32>(diff);
    prev = cur;
  }
}

void lorenzo_inverse(const i32* in, i32* out, std::size_t n) {
  i64 acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += in[i];
    check_lorenzo_inverse(fits_i32(acc));
    out[i] = static_cast<i32>(acc);
  }
}

ValueBounds value_bounds(const f32* in, std::size_t n) {
  if (n == 0) return {};
  f32 lo = in[0];
  f32 hi = in[0];
  for (std::size_t i = 0; i < n; ++i) {
    const f32 v = in[i];
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  return {lo, hi};
}

void split_sign(const i32* in, u32* abs, u8* signs, std::size_t n) {
  std::memset(signs, 0, n / 8);
  for (std::size_t i = 0; i < n; ++i) {
    const i32 v = in[i];
    if (v < 0) {
      signs[i / 8] |= static_cast<u8>(1u << (i % 8));
      abs[i] = static_cast<u32>(-static_cast<i64>(v));
    } else {
      abs[i] = static_cast<u32>(v);
    }
  }
}

u32 block_max(const u32* abs, std::size_t n) {
  u32 m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (abs[i] > m) m = abs[i];
  }
  return m;
}

void bit_shuffle(const u32* abs, std::size_t n, u32 fl, u8* out) {
  const std::size_t plane_bytes = n / 8;
  for (u32 bit = 0; bit < fl; ++bit) {
    u8* plane = out + bit * plane_bytes;
    std::memset(plane, 0, plane_bytes);
    for (std::size_t j = 0; j < n; ++j) {
      plane[j / 8] |= static_cast<u8>(((abs[j] >> bit) & 1u) << (j % 8));
    }
  }
}

void bit_unshuffle(const u8* planes, std::size_t n, u32 fl, u32* abs) {
  const std::size_t plane_bytes = n / 8;
  for (std::size_t j = 0; j < n; ++j) abs[j] = 0;
  for (u32 k = 0; k < fl; ++k) {
    const u8* plane = planes + k * plane_bytes;
    for (std::size_t j = 0; j < n; ++j) {
      abs[j] |= static_cast<u32>((plane[j / 8] >> (j % 8)) & 1u) << k;
    }
  }
}

void apply_sign(const u32* abs, const u8* signs, i32* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const bool negative = (signs[i / 8] >> (i % 8)) & 1u;
    out[i] = static_cast<i32>(negative ? 0u - abs[i] : abs[i]);
  }
}

u32 encode_block(const f32* in, std::size_t n, f64 two_eps, u32* abs,
                 u8* signs) {
  // abs doubles as the quantized working buffer: the signed and unsigned
  // variants of one integer type may alias.
  i32* q = reinterpret_cast<i32*>(abs);
  prequant(in, q, n, two_eps);
  lorenzo_forward(q, q, n);
  split_sign(q, abs, signs, n);
  u32 bits = 0;
  for (std::size_t i = 0; i < n; ++i) bits |= abs[i];
  return bits;
}

void decode_block(const u8* signs, const u8* planes, u32 fl, std::size_t n,
                  f64 two_eps, f32* out) {
  const std::size_t plane_bytes = n / 8;
  i32 acc = 0;
  bool ok = true;
  for (std::size_t j = 0; j < n; ++j) {
    u32 magnitude = 0;
    for (u32 k = 0; k < fl; ++k) {
      magnitude |=
          static_cast<u32>((planes[k * plane_bytes + j / 8] >> (j % 8)) & 1u)
          << k;
    }
    const bool negative = (signs[j / 8] >> (j % 8)) & 1u;
    const i64 sum = static_cast<i64>(acc) +
                    static_cast<i32>(negative ? 0u - magnitude : magnitude);
    ok &= fits_i32(sum);
    acc = static_cast<i32>(sum);
    out[j] = static_cast<f32>(static_cast<f64>(acc) * two_eps);
  }
  check_lorenzo_inverse(ok);
}

}  // namespace scalar

constexpr KernelTable kScalarTable{
    "scalar",           scalar::prequant,      scalar::dequant,
    scalar::lorenzo_forward, scalar::lorenzo_inverse, scalar::value_bounds,
    scalar::split_sign, scalar::block_max,     scalar::bit_shuffle,
    scalar::bit_unshuffle, scalar::apply_sign, scalar::encode_block,
    scalar::decode_block,
};

#if defined(__x86_64__)

#define CERESZ_AVX2 __attribute__((target("avx2")))

namespace avx2 {

// Each 8-lane step below mirrors one element of the scalar loop in f64 or
// wrapping 32-bit arithmetic, so the two tables agree bit for bit.

CERESZ_AVX2 inline __m256i rotate_up(__m256i v) {
  return _mm256_permutevar8x32_epi32(v,
                                     _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6));
}

CERESZ_AVX2 inline bool no_sign_bits(__m256i v) {
  return _mm256_movemask_ps(_mm256_castsi256_ps(v)) == 0;
}

/// Quantize in[0..8); lanes of `ok` clear when a value does not fit.
CERESZ_AVX2 inline __m256i quantize8(const f32* in, __m256d recip,
                                     __m256d& ok) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d lo = _mm256_set1_pd(kMinQuant);
  const __m256d hi = _mm256_set1_pd(kMaxQuant);
  const __m256d a = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(in)), recip), half));
  const __m256d b = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(in + 4)), recip), half));
  // Ordered compares: NaN fails both.
  ok = _mm256_and_pd(ok, _mm256_and_pd(_mm256_cmp_pd(a, lo, _CMP_GE_OQ),
                                       _mm256_cmp_pd(a, hi, _CMP_LE_OQ)));
  ok = _mm256_and_pd(ok, _mm256_and_pd(_mm256_cmp_pd(b, lo, _CMP_GE_OQ),
                                       _mm256_cmp_pd(b, hi, _CMP_LE_OQ)));
  return _mm256_set_m128i(_mm256_cvtpd_epi32(b), _mm256_cvtpd_epi32(a));
}

/// q[i] - q[i-1]; `carry` holds the previous vector rotated up (its lane
/// 0 is the element before q[0]) and is advanced. Lanes of `ovf` get the
/// sign bit where a difference overflows.
CERESZ_AVX2 inline __m256i diff8(__m256i q, __m256i& carry, __m256i& ovf) {
  const __m256i rot = rotate_up(q);
  const __m256i prev = _mm256_blend_epi32(rot, carry, 0x01);
  carry = rot;
  const __m256i d = _mm256_sub_epi32(q, prev);
  ovf = _mm256_or_si256(ovf, _mm256_and_si256(_mm256_xor_si256(q, prev),
                                              _mm256_xor_si256(q, d)));
  return d;
}

/// Running prefix sum of x; `carry` broadcasts the sum before x[0] and is
/// advanced. Checking each step w[i] = w[i-1] + x[i] on the wrapped sums
/// finds the first overflow exactly, as the scalar i64 check does.
CERESZ_AVX2 inline __m256i prefix8(__m256i x, __m256i& carry, __m256i& ovf) {
  __m256i s = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  s = _mm256_add_epi32(s, _mm256_slli_si256(s, 8));
  s = _mm256_add_epi32(
      s, _mm256_permute2x128_si256(_mm256_shuffle_epi32(s, 0xff), s, 0x08));
  const __m256i w = _mm256_add_epi32(s, carry);
  const __m256i before = _mm256_blend_epi32(rotate_up(w), carry, 0x01);
  ovf = _mm256_or_si256(ovf, _mm256_and_si256(_mm256_xor_si256(before, w),
                                              _mm256_xor_si256(x, w)));
  carry = _mm256_permutevar8x32_epi32(w, _mm256_set1_epi32(7));
  return w;
}

CERESZ_AVX2 inline void dequant8(__m256i q, __m256d two_eps, f32* out) {
  _mm_storeu_ps(out, _mm256_cvtpd_ps(_mm256_mul_pd(
                         _mm256_cvtepi32_pd(_mm256_castsi256_si128(q)),
                         two_eps)));
  _mm_storeu_ps(out + 4, _mm256_cvtpd_ps(_mm256_mul_pd(
                             _mm256_cvtepi32_pd(_mm256_extracti128_si256(q, 1)),
                             two_eps)));
}

/// Negate the lanes whose bit is set in `sign_byte`, wrapping.
CERESZ_AVX2 inline __m256i apply_sign8(__m256i abs, u32 sign_byte) {
  const __m256i neg = _mm256_srai_epi32(
      _mm256_sllv_epi32(_mm256_set1_epi32(static_cast<int>(sign_byte)),
                        _mm256_setr_epi32(31, 30, 29, 28, 27, 26, 25, 24)),
      31);
  return _mm256_sub_epi32(_mm256_xor_si256(abs, neg), neg);
}

/// Planes 0..fl-1 of 32 values: plane k's bits reach the sign bit after a
/// left shift by 31 - k, so walking the planes from the top down, each
/// next plane is one more shift.
CERESZ_AVX2 inline void shuffle32(const u32* abs, std::size_t plane_bytes,
                                  u32 fl, u8* out) {
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(32 - fl));
  __m256i v[4];
  for (int q = 0; q < 4; ++q) {
    v[q] = _mm256_sll_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(abs + 8 * q)),
        shift);
  }
  for (u32 p = fl; p-- > 0;) {
    u32 word = 0;
    for (int q = 0; q < 4; ++q) {
      word |= static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(v[q])))
              << (8 * q);
      v[q] = _mm256_slli_epi32(v[q], 1);
    }
    std::memcpy(out + p * plane_bytes, &word, sizeof(word));
  }
}

/// Rebuild 32 magnitudes from planes 0..fl-1, top plane first: each plane
/// shifts the partial values up by one and adds its bit.
CERESZ_AVX2 inline void unshuffle32(const u8* planes, std::size_t plane_bytes,
                                    u32 fl, __m256i mag[4]) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i lane_bit[4] = {
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15),
      _mm256_setr_epi32(16, 17, 18, 19, 20, 21, 22, 23),
      _mm256_setr_epi32(24, 25, 26, 27, 28, 29, 30, 31)};
  for (int q = 0; q < 4; ++q) mag[q] = _mm256_setzero_si256();
  for (u32 k = fl; k-- > 0;) {
    u32 word;
    std::memcpy(&word, planes + k * plane_bytes, sizeof(word));
    const __m256i w = _mm256_set1_epi32(static_cast<int>(word));
    for (int q = 0; q < 4; ++q) {
      mag[q] = _mm256_or_si256(
          _mm256_slli_epi32(mag[q], 1),
          _mm256_and_si256(_mm256_srlv_epi32(w, lane_bit[q]), one));
    }
  }
}

CERESZ_AVX2 void prequant(const f32* in, i32* out, std::size_t n,
                          f64 two_eps) {
  const __m256d recip = _mm256_set1_pd(1.0 / two_eps);
  __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi32(-1));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        quantize8(in + i, recip, ok));
  }
  const bool tail_ok = scalar::quantize(in + i, out + i, n - i, two_eps);
  check_prequant(_mm256_movemask_pd(ok) == 0xf && tail_ok);
}

/// Four accumulators per side break the min/max dependency chain.
/// _mm256_min_ps(v, lo) is v < lo ? v : lo in every lane (and max_ps its
/// mirror), the scalar rule, so a NaN enters an accumulator only from the
/// in[0] seed; the cross-lane fold and the tail apply the same rule.
CERESZ_AVX2 ValueBounds value_bounds(const f32* in, std::size_t n) {
  if (n == 0) return {};
  const __m256 seed = _mm256_set1_ps(in[0]);
  __m256 lo[4] = {seed, seed, seed, seed};
  __m256 hi[4] = {seed, seed, seed, seed};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      const __m256 v = _mm256_loadu_ps(in + i + 8 * k);
      lo[k] = _mm256_min_ps(v, lo[k]);
      hi[k] = _mm256_max_ps(v, hi[k]);
    }
  }
  alignas(32) f32 lanes_lo[8];
  alignas(32) f32 lanes_hi[8];
  _mm256_store_ps(lanes_lo, _mm256_min_ps(_mm256_min_ps(lo[0], lo[1]),
                                          _mm256_min_ps(lo[2], lo[3])));
  _mm256_store_ps(lanes_hi, _mm256_max_ps(_mm256_max_ps(hi[0], hi[1]),
                                          _mm256_max_ps(hi[2], hi[3])));
  ValueBounds b{lanes_lo[0], lanes_hi[0]};
  for (int k = 1; k < 8; ++k) {
    b.lo = lanes_lo[k] < b.lo ? lanes_lo[k] : b.lo;
    b.hi = lanes_hi[k] > b.hi ? lanes_hi[k] : b.hi;
  }
  for (; i < n; ++i) {
    b.lo = in[i] < b.lo ? in[i] : b.lo;
    b.hi = in[i] > b.hi ? in[i] : b.hi;
  }
  return b;
}

CERESZ_AVX2 void split_sign(const i32* in, u32* abs, u8* signs,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    signs[i / 8] =
        static_cast<u8>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(abs + i),
                        _mm256_abs_epi32(v));
  }
}

CERESZ_AVX2 u32 block_max(const u32* abs, std::size_t n) {
  __m256i m = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m = _mm256_max_epu32(
        m, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(abs + i)));
  }
  __m128i h = _mm_max_epu32(_mm256_castsi256_si128(m),
                            _mm256_extracti128_si256(m, 1));
  h = _mm_max_epu32(h, _mm_shuffle_epi32(h, 0x4e));
  h = _mm_max_epu32(h, _mm_shuffle_epi32(h, 0xb1));
  const u32 body = static_cast<u32>(_mm_cvtsi128_si32(h));
  const u32 tail = scalar::block_max(abs + i, n - i);
  return body > tail ? body : tail;
}

CERESZ_AVX2 void bit_shuffle(const u32* abs, std::size_t n, u32 fl,
                             u8* out) {
  if (n % 32 != 0) return scalar::bit_shuffle(abs, n, fl, out);
  for (std::size_t g = 0; g < n; g += 32) {
    shuffle32(abs + g, n / 8, fl, out + g / 8);
  }
}

CERESZ_AVX2 void bit_unshuffle(const u8* planes, std::size_t n, u32 fl,
                               u32* abs) {
  if (n % 32 != 0) return scalar::bit_unshuffle(planes, n, fl, abs);
  for (std::size_t g = 0; g < n; g += 32) {
    __m256i mag[4];
    unshuffle32(planes + g / 8, n / 8, fl, mag);
    for (int q = 0; q < 4; ++q) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(abs + g + 8 * q),
                          mag[q]);
    }
  }
}

CERESZ_AVX2 u32 encode_block(const f32* in, std::size_t n, f64 two_eps,
                             u32* abs, u8* signs) {
  const __m256d recip = _mm256_set1_pd(1.0 / two_eps);
  __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi32(-1));
  __m256i carry = _mm256_setzero_si256();
  __m256i ovf = _mm256_setzero_si256();
  __m256i bits = _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i d = diff8(quantize8(in + i, recip, ok), carry, ovf);
    signs[i / 8] =
        static_cast<u8>(_mm256_movemask_ps(_mm256_castsi256_ps(d)));
    const __m256i a = _mm256_abs_epi32(d);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(abs + i), a);
    bits = _mm256_or_si256(bits, a);
  }
  check_prequant(_mm256_movemask_pd(ok) == 0xf);
  check_lorenzo_forward(no_sign_bits(ovf));
  __m128i h = _mm_or_si128(_mm256_castsi256_si128(bits),
                           _mm256_extracti128_si256(bits, 1));
  h = _mm_or_si128(h, _mm_shuffle_epi32(h, 0x4e));
  h = _mm_or_si128(h, _mm_shuffle_epi32(h, 0xb1));
  return static_cast<u32>(_mm_cvtsi128_si32(h));
}

CERESZ_AVX2 void decode_block(const u8* signs, const u8* planes, u32 fl,
                              std::size_t n, f64 two_eps, f32* out) {
  if (n % 32 != 0) {
    return scalar::decode_block(signs, planes, fl, n, two_eps, out);
  }
  const __m256d scale = _mm256_set1_pd(two_eps);
  __m256i carry = _mm256_setzero_si256();
  __m256i ovf = _mm256_setzero_si256();
  for (std::size_t g = 0; g < n; g += 32) {
    __m256i mag[4];
    unshuffle32(planes + g / 8, n / 8, fl, mag);
    for (int q = 0; q < 4; ++q) {
      const __m256i residual = apply_sign8(mag[q], signs[g / 8 + q]);
      dequant8(prefix8(residual, carry, ovf), scale, out + g + 8 * q);
    }
  }
  check_lorenzo_inverse(no_sign_bits(ovf));
}

}  // namespace avx2

// dequant, Lorenzo and apply_sign stay scalar: the codec's block path
// runs them inside encode_block/decode_block, so only the public stage
// functions call the unfused ones.
constexpr KernelTable kAvx2Table{
    "avx2",             avx2::prequant,       scalar::dequant,
    scalar::lorenzo_forward, scalar::lorenzo_inverse, avx2::value_bounds,
    avx2::split_sign,   avx2::block_max,      avx2::bit_shuffle,
    avx2::bit_unshuffle, scalar::apply_sign,  avx2::encode_block,
    avx2::decode_block,
};

#endif  // __x86_64__

}  // namespace

const KernelTable& scalar_kernels() { return kScalarTable; }

const KernelTable* avx2_kernels() {
#if defined(__x86_64__)
  return host_isa() == HostIsa::kAvx2 ? &kAvx2Table : nullptr;
#else
  return nullptr;
#endif
}

const KernelTable& kernels() {
  static const KernelTable& active =
      avx2_kernels() != nullptr ? *avx2_kernels() : scalar_kernels();
  return active;
}

ValueBounds value_bounds(std::span<const f32> values,
                         const KernelTable& table) {
  return table.value_bounds(values.data(), values.size());
}

}  // namespace ceresz::core

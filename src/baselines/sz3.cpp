#include "baselines/sz3.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "baselines/lorenzo_nd.h"
#include "common/bitio.h"
#include "common/error.h"
#include "common/little_endian.h"
#include "core/kernels.h"
#include "huffman/huffman.h"

namespace ceresz::baselines {

namespace {

constexpr char kMagic[4] = {'S', 'Z', '3', 'R'};

}  // namespace

std::vector<u8> Sz3Compressor::compress(const data::Field& field,
                                        core::ErrorBound bound,
                                        BaselineStats* stats) const {
  const auto& values = field.values;
  CERESZ_CHECK(!values.empty(), "Sz3Compressor: empty field");
  const GridShape shape = GridShape::from_dims(field.dims);
  CERESZ_CHECK(shape.size() == values.size(),
               "Sz3Compressor: dims do not match data size");

  const f64 eps = bound.resolve(core::value_bounds(values).range());
  const f64 two_eps = 2.0 * eps;
  const u32 escape = 2 * radius_;  // symbol marking an outlier

  std::vector<f32> recon(values.size());
  std::vector<u32> symbols(values.size());
  std::vector<f32> outliers;

  std::size_t idx = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        const f64 pred = lorenzo_predict<f64>(recon, shape, z, y, x);
        const f64 diff = static_cast<f64>(values[idx]) - pred;
        const f64 qf = std::floor(diff / two_eps + 0.5);
        if (qf >= -static_cast<f64>(radius_) &&
            qf < static_cast<f64>(radius_)) {
          const i64 q = static_cast<i64>(qf);
          const f64 r = pred + static_cast<f64>(q) * two_eps;
          // The bin must actually satisfy the bound after f32 rounding;
          // otherwise fall through to outlier storage.
          if (std::fabs(r - values[idx]) <= eps) {
            symbols[idx] = static_cast<u32>(q + radius_);
            recon[idx] = static_cast<f32>(r);
            continue;
          }
        }
        symbols[idx] = escape;
        outliers.push_back(values[idx]);
        recon[idx] = values[idx];
      }
    }
  }

  // Tokenize: replace runs of the zero-residual bin with run tokens
  // (length bucket + raw offset bits). This plays the role of SZ3's
  // lossless backend: on smooth data the residual stream is dominated by
  // zeros, and run coding takes it well below Huffman's 1-bit/symbol
  // floor — the mechanism behind SZ's 100x+ ratios in Table 5.
  const u32 zero_sym = radius_;
  const u32 run_base = 2 * radius_ + 1;  // token for run bucket b: run_base+b
  std::vector<u32> tokens;
  std::vector<std::pair<u32, int>> run_bits;  // (offset, width) per run token
  tokens.reserve(symbols.size() / 4);
  for (std::size_t i = 0; i < symbols.size();) {
    if (symbols[i] == zero_sym) {
      std::size_t j = i;
      while (j < symbols.size() && symbols[j] == zero_sym) ++j;
      const u64 run = j - i;
      if (run >= 2) {
        const int bucket = 63 - std::countl_zero(run);
        tokens.push_back(run_base + static_cast<u32>(bucket));
        run_bits.emplace_back(static_cast<u32>(run - (u64{1} << bucket)),
                              bucket);
        i = j;
        continue;
      }
    }
    tokens.push_back(symbols[i]);
    ++i;
  }

  huffman::HuffmanCodec codec = huffman::HuffmanCodec::from_symbols(tokens);
  BitWriter writer;
  std::size_t run_at = 0;
  for (u32 t : tokens) {
    codec.encode_one(t, writer);
    if (t >= run_base) {
      const auto [offset, width] = run_bits[run_at++];
      writer.put(offset, width);
    }
  }
  std::vector<u8> bits = writer.finish();

  std::vector<u8> out(kMagic, kMagic + 4);
  out.push_back(static_cast<u8>(field.dims.size()));
  for (std::size_t d : field.dims) append_u64(out, d);
  u64 eps_bits;
  std::memcpy(&eps_bits, &eps, sizeof(eps_bits));
  append_u64(out, eps_bits);
  append_u32(out, radius_);
  append_u64(out, values.size());
  codec.serialize_table(out);
  append_u64(out, bits.size());
  out.insert(out.end(), bits.begin(), bits.end());
  append_u64(out, outliers.size());
  const std::size_t raw_at = out.size();
  out.resize(out.size() + outliers.size() * sizeof(f32));
  if (!outliers.empty()) {
    std::memcpy(out.data() + raw_at, outliers.data(),
                outliers.size() * sizeof(f32));
  }

  if (stats != nullptr) {
    stats->eps_abs = eps;
    stats->element_count = values.size();
    stats->compressed_bytes = out.size();
    stats->outliers = outliers.size();
    stats->mean_code_bits = static_cast<f64>(bits.size()) * 8.0 /
                            static_cast<f64>(values.size());
  }
  return out;
}

std::vector<f32> Sz3Compressor::decompress(std::span<const u8> stream) const {
  CERESZ_CHECK(stream.size() >= 5 && std::memcmp(stream.data(), kMagic, 4) == 0,
               "Sz3Compressor: bad magic");
  std::size_t pos = 4;
  const int ndims = stream[pos++];
  CERESZ_CHECK(ndims >= 1 && ndims <= 3, "Sz3Compressor: corrupt dims");
  std::vector<std::size_t> dims(ndims);
  for (int d = 0; d < ndims; ++d) {
    CERESZ_CHECK(pos + 8 <= stream.size(), "Sz3Compressor: truncated header");
    dims[d] = read_u64(stream.data() + pos);
    pos += 8;
  }
  CERESZ_CHECK(pos + 20 <= stream.size(), "Sz3Compressor: truncated header");
  f64 eps;
  const u64 eps_bits = read_u64(stream.data() + pos);
  std::memcpy(&eps, &eps_bits, sizeof(eps));
  pos += 8;
  const u32 radius = read_u32(stream.data() + pos);
  pos += 4;
  const u64 count = read_u64(stream.data() + pos);
  pos += 8;

  // Geometry sanity before any allocation: a corrupt header must not make
  // us reserve unbounded memory.
  const GridShape shape_check = GridShape::from_dims(dims);
  CERESZ_CHECK(shape_check.size() == count,
               "Sz3Compressor: corrupt geometry");
  CERESZ_CHECK(count <= (u64{1} << 31),
               "Sz3Compressor: element count exceeds the decoder limit");

  std::size_t table_bytes = 0;
  huffman::HuffmanCodec codec =
      huffman::HuffmanCodec::deserialize_table(stream.subspan(pos), table_bytes);
  pos += table_bytes;
  CERESZ_CHECK(pos + 8 <= stream.size(), "Sz3Compressor: truncated bitstream");
  const u64 bit_bytes = read_u64(stream.data() + pos);
  pos += 8;
  CERESZ_CHECK(pos + bit_bytes <= stream.size(),
               "Sz3Compressor: truncated bitstream payload");
  BitReader reader(stream.data() + pos, bit_bytes);
  const u32 run_base = 2 * radius + 1;
  std::vector<u32> symbols;
  symbols.reserve(count);
  while (symbols.size() < count) {
    const u32 t = codec.decode_one(reader);
    if (t >= run_base) {
      const int bucket = static_cast<int>(t - run_base);
      CERESZ_CHECK(bucket < 63, "Sz3Compressor: corrupt run token");
      const u64 run = (u64{1} << bucket) + reader.get(bucket);
      CERESZ_CHECK(symbols.size() + run <= count,
                   "Sz3Compressor: run overflows element count");
      symbols.insert(symbols.end(), run, radius);
    } else {
      symbols.push_back(t);
    }
  }
  pos += bit_bytes;

  CERESZ_CHECK(pos + 8 <= stream.size(), "Sz3Compressor: truncated outliers");
  const u64 n_outliers = read_u64(stream.data() + pos);
  pos += 8;
  CERESZ_CHECK(pos + n_outliers * sizeof(f32) <= stream.size(),
               "Sz3Compressor: truncated outlier payload");
  std::vector<f32> outliers(n_outliers);
  if (n_outliers > 0) {
    std::memcpy(outliers.data(), stream.data() + pos,
                n_outliers * sizeof(f32));
  }

  const GridShape shape = GridShape::from_dims(dims);
  const f64 two_eps = 2.0 * eps;
  const u32 escape = 2 * radius;

  std::vector<f32> recon(count);
  std::size_t idx = 0;
  std::size_t outlier_at = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        if (symbols[idx] == escape) {
          CERESZ_CHECK(outlier_at < outliers.size(),
                       "Sz3Compressor: outlier stream exhausted");
          recon[idx] = outliers[outlier_at++];
          continue;
        }
        const f64 pred = lorenzo_predict<f64>(recon, shape, z, y, x);
        const i64 q = static_cast<i64>(symbols[idx]) - radius;
        recon[idx] = static_cast<f32>(pred + static_cast<f64>(q) * two_eps);
      }
    }
  }
  return recon;
}

std::unique_ptr<Compressor> make_sz3() {
  return std::make_unique<Sz3Compressor>();
}

}  // namespace ceresz::baselines

#include "baselines/cusz.h"

#include <cmath>
#include <cstring>

#include "baselines/lorenzo_nd.h"
#include "common/bitio.h"
#include "common/error.h"
#include "common/little_endian.h"
#include "core/kernels.h"
#include "core/prequant.h"
#include "huffman/huffman.h"

namespace ceresz::baselines {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'Z', 'R'};

}  // namespace

std::vector<u8> CuszCompressor::compress(const data::Field& field,
                                         core::ErrorBound bound,
                                         BaselineStats* stats) const {
  const auto& values = field.values;
  CERESZ_CHECK(!values.empty(), "CuszCompressor: empty field");
  const GridShape shape = GridShape::from_dims(field.dims);
  CERESZ_CHECK(shape.size() == values.size(),
               "CuszCompressor: dims do not match data size");

  const f64 eps = bound.resolve(core::value_bounds(values).range());

  // Dual-quant step 1: pre-quantize the whole field (lossy, ε-bounded).
  std::vector<i32> quant(values.size());
  core::prequant(values, quant, 2.0 * eps);

  // Step 2: exact integer Lorenzo residuals (lossless from here on).
  const u32 escape = 2 * radius_;
  std::vector<u32> symbols(values.size());
  std::vector<i32> outliers;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        const i64 pred = lorenzo_predict<i64>(quant, shape, z, y, x);
        const i64 r = static_cast<i64>(quant[idx]) - pred;
        if (r >= -static_cast<i64>(radius_) && r < static_cast<i64>(radius_)) {
          symbols[idx] = static_cast<u32>(r + radius_);
        } else {
          symbols[idx] = escape;
          outliers.push_back(quant[idx]);
        }
      }
    }
  }

  huffman::HuffmanCodec codec = huffman::HuffmanCodec::from_symbols(symbols);
  BitWriter writer;
  codec.encode(symbols, writer);
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
  out.resize(out.size() + outliers.size() * sizeof(i32));
  if (!outliers.empty()) {
    std::memcpy(out.data() + raw_at, outliers.data(),
                outliers.size() * sizeof(i32));
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

std::vector<f32> CuszCompressor::decompress(std::span<const u8> stream) const {
  CERESZ_CHECK(stream.size() >= 5 && std::memcmp(stream.data(), kMagic, 4) == 0,
               "CuszCompressor: bad magic");
  std::size_t pos = 4;
  const int ndims = stream[pos++];
  CERESZ_CHECK(ndims >= 1 && ndims <= 3, "CuszCompressor: corrupt dims");
  std::vector<std::size_t> dims(ndims);
  for (int d = 0; d < ndims; ++d) {
    CERESZ_CHECK(pos + 8 <= stream.size(), "CuszCompressor: truncated header");
    dims[d] = read_u64(stream.data() + pos);
    pos += 8;
  }
  CERESZ_CHECK(pos + 20 <= stream.size(), "CuszCompressor: truncated header");
  f64 eps;
  const u64 eps_bits = read_u64(stream.data() + pos);
  std::memcpy(&eps, &eps_bits, sizeof(eps));
  pos += 8;
  const u32 radius = read_u32(stream.data() + pos);
  pos += 4;
  const u64 count = read_u64(stream.data() + pos);
  pos += 8;

  // Geometry sanity before any allocation (corrupt-header guard).
  const GridShape shape_check = GridShape::from_dims(dims);
  CERESZ_CHECK(shape_check.size() == count,
               "CuszCompressor: corrupt geometry");
  CERESZ_CHECK(count <= (u64{1} << 31),
               "CuszCompressor: element count exceeds the decoder limit");

  std::size_t table_bytes = 0;
  huffman::HuffmanCodec codec =
      huffman::HuffmanCodec::deserialize_table(stream.subspan(pos), table_bytes);
  pos += table_bytes;
  CERESZ_CHECK(pos + 8 <= stream.size(), "CuszCompressor: truncated bitstream");
  const u64 bit_bytes = read_u64(stream.data() + pos);
  pos += 8;
  CERESZ_CHECK(pos + bit_bytes <= stream.size(),
               "CuszCompressor: truncated bitstream payload");
  BitReader reader(stream.data() + pos, bit_bytes);
  std::vector<u32> symbols = codec.decode(reader, count);
  pos += bit_bytes;

  CERESZ_CHECK(pos + 8 <= stream.size(), "CuszCompressor: truncated outliers");
  const u64 n_outliers = read_u64(stream.data() + pos);
  pos += 8;
  CERESZ_CHECK(pos + n_outliers * sizeof(i32) <= stream.size(),
               "CuszCompressor: truncated outlier payload");
  std::vector<i32> outliers(n_outliers);
  if (n_outliers > 0) {
    std::memcpy(outliers.data(), stream.data() + pos,
                n_outliers * sizeof(i32));
  }

  const GridShape shape = GridShape::from_dims(dims);
  const u32 escape = 2 * radius;

  std::vector<i32> quant(count);
  std::size_t idx = 0;
  std::size_t outlier_at = 0;
  for (std::size_t z = 0; z < shape.dims[0]; ++z) {
    for (std::size_t y = 0; y < shape.dims[1]; ++y) {
      for (std::size_t x = 0; x < shape.dims[2]; ++x, ++idx) {
        if (symbols[idx] == escape) {
          CERESZ_CHECK(outlier_at < outliers.size(),
                       "CuszCompressor: outlier stream exhausted");
          quant[idx] = outliers[outlier_at++];
          continue;
        }
        const i64 pred = lorenzo_predict<i64>(quant, shape, z, y, x);
        quant[idx] = static_cast<i32>(
            pred + static_cast<i64>(symbols[idx]) - radius);
      }
    }
  }

  std::vector<f32> recon(count);
  core::dequant(quant, recon, 2.0 * eps);
  return recon;
}

std::unique_ptr<Compressor> make_cusz() {
  return std::make_unique<CuszCompressor>();
}

}  // namespace ceresz::baselines

#include "baselines/szp.h"

#include "common/error.h"

namespace ceresz::baselines {

namespace {
core::CodecConfig szp_codec_config() {
  core::CodecConfig cfg;
  cfg.block_size = 32;
  cfg.header_bytes = 1;  // the CPU/GPU codecs are not bound to 32-bit units
  cfg.zero_block_shortcut = true;
  return cfg;
}
}  // namespace

SzpCompressor::SzpCompressor(std::string name, u32 chunk_offset_blocks)
    : name_(std::move(name)),
      chunk_offset_blocks_(chunk_offset_blocks),
      codec_(szp_codec_config()) {}

std::vector<u8> SzpCompressor::compress(const data::Field& field,
                                        core::ErrorBound bound,
                                        BaselineStats* stats) const {
  core::CompressionResult r = codec_.compress(field.view(), bound);
  // cuSZp bookkeeping: one u32 offset per chunk of blocks, after the
  // container.
  r.stream.insert(r.stream.end(), offset_table_bytes(r.element_count), 0);
  if (stats != nullptr) {
    stats->eps_abs = r.eps_abs;
    stats->element_count = r.element_count;
    stats->compressed_bytes = r.stream.size();
    stats->zero_fraction = r.stats.zero_fraction();
    stats->mean_code_bits = r.stats.mean_fixed_length + 1.0;  // + sign bit
    stats->outliers = 0;
  }
  return std::move(r.stream);
}

std::vector<f32> SzpCompressor::decompress(std::span<const u8> stream) const {
  // The sequential decoder needs no offset table (record sizes are
  // self-describing); the codec reads the container without it.
  const u64 table =
      chunk_offset_blocks_ > 0
          ? offset_table_bytes(io::parse_container_header(stream).element_count)
          : 0;
  CERESZ_CHECK(table <= stream.size(), "cuSZp: truncated offset table");
  return codec_.decompress(stream.first(stream.size() - table));
}

u64 SzpCompressor::offset_table_bytes(u64 element_count) const {
  if (chunk_offset_blocks_ == 0) return 0;
  const u64 L = codec_.config().block_size;
  const u64 blocks = element_count / L + (element_count % L != 0 ? 1 : 0);
  return (blocks / chunk_offset_blocks_ +
          (blocks % chunk_offset_blocks_ != 0 ? 1 : 0)) *
         4;
}

std::unique_ptr<Compressor> make_szp() {
  return std::make_unique<SzpCompressor>("SZp");
}

std::unique_ptr<Compressor> make_cuszp() {
  return std::make_unique<SzpCompressor>("cuSZp", /*chunk_offset_blocks=*/256);
}

}  // namespace ceresz::baselines

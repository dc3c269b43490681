#include "core/stream_codec.h"

#include <string>

#include "common/error.h"

namespace ceresz::core {

void check_container_config(const io::ChunkedHeader& header,
                            const CodecConfig& config) {
  CERESZ_CHECK(header.codec_header_bytes == config.header_bytes,
               "stream was written with a different block header width "
               "than this codec's configuration");
  CERESZ_CHECK(header.block_size == config.block_size,
               "stream was written with a different block size than this "
               "codec's configuration");
}

bool decode_chunk(const BlockCodec& codec, std::span<const u8> stream,
                  const io::ParsedContainer& parsed, u64 index,
                  std::span<f32> out, const StopFn& stop) {
  const std::span<const u8> payload =
      io::verified_payload(stream, parsed, index);
  std::optional<std::size_t> consumed;
  try {
    consumed = codec.decode_blocks(payload, parsed.header.eps_abs, out, stop);
  } catch (const std::exception& e) {
    throw Error("chunk " + std::to_string(index) + " is corrupt: " +
                e.what());
  }
  if (!consumed) return false;
  CERESZ_CHECK(*consumed == payload.size(),
               "chunk " + std::to_string(index) +
                   " has trailing bytes after its last block record");
  return true;
}

StreamCodec::StreamCodec(CodecConfig config, const KernelTable& table)
    : block_codec_(config, table) {}

CompressionResult StreamCodec::compress(std::span<const f32> data,
                                        ErrorBound bound) const {
  const CodecConfig& cfg = block_codec_.config();
  const f64 eps = bound.resolve(
      bound.mode == ErrorBound::Mode::kAbsolute
          ? 0.0
          : value_bounds(data, block_codec_.table()).range());

  CompressionResult result;
  result.eps_abs = eps;
  result.element_count = data.size();
  auto& out = result.stream;
  out.assign(io::single_chunk_prefix_bytes(data.size()), 0);
  block_codec_.encode_blocks(data, eps, out, result.stats);
  io::frame_single_chunk(out, cfg.header_bytes, cfg.block_size, data.size(),
                         eps);
  return result;
}

std::vector<f32> StreamCodec::decompress(std::span<const u8> stream) const {
  // parse_container ties every chunk's element count to its payload
  // size, so a corrupt header cannot make this allocate unbounded memory.
  const io::ParsedContainer parsed = io::parse_container(stream);
  check_container_config(parsed.header, config());
  std::vector<f32> output(parsed.header.element_count);
  for (u64 c = 0; c < parsed.entries.size(); ++c) {
    decode_chunk(block_codec_, stream, parsed, c,
                 std::span<f32>(output).subspan(c * parsed.header.chunk_elems,
                                                parsed.entries[c].element_count));
  }
  return output;
}

}  // namespace ceresz::core

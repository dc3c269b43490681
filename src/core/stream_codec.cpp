#include "core/stream_codec.h"

#include <cstring>

#include "common/error.h"

namespace ceresz::core {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'Z', '1'};

void append_u16(std::vector<u8>& out, u16 v) {
  out.push_back(static_cast<u8>(v & 0xff));
  out.push_back(static_cast<u8>(v >> 8));
}

void append_u64(std::vector<u8>& out, u64 v) {
  for (int b = 0; b < 8; ++b) out.push_back(static_cast<u8>((v >> (8 * b)) & 0xff));
}

u16 read_u16(const u8* p) {
  return static_cast<u16>(p[0] | (static_cast<u16>(p[1]) << 8));
}

u64 read_u64(const u8* p) {
  u64 v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<u64>(p[b]) << (8 * b);
  return v;
}

}  // namespace

StreamCodec::StreamCodec(CodecConfig config, const KernelTable& table)
    : block_codec_(config, table) {}

CompressionResult StreamCodec::compress(std::span<const f32> data,
                                        ErrorBound bound) const {
  const CodecConfig& cfg = block_codec_.config();
  const u32 L = cfg.block_size;

  const f64 eps = bound.resolve(
      bound.mode == ErrorBound::Mode::kAbsolute
          ? 0.0
          : value_bounds(data, block_codec_.table()).range());

  CompressionResult result;
  result.eps_abs = eps;
  result.element_count = data.size();

  // Container header.
  auto& out = result.stream;
  out.assign(kMagic, kMagic + 4);
  out.push_back(static_cast<u8>(cfg.header_bytes));
  out.push_back(cfg.zero_block_shortcut ? u8{1} : u8{0});
  append_u16(out, static_cast<u16>(L));
  append_u64(out, data.size());
  u64 eps_bits;
  static_assert(sizeof(eps_bits) == sizeof(eps));
  std::memcpy(&eps_bits, &eps, sizeof(eps));
  append_u64(out, eps_bits);
  CERESZ_CHECK(out.size() == header_size(), "StreamCodec: header size drift");

  block_codec_.encode_blocks(data, eps, out, result.stats);
  return result;
}

StreamCodec::StreamHeader StreamCodec::parse_header(
    std::span<const u8> stream) const {
  CERESZ_CHECK(stream.size() >= header_size(),
               "StreamCodec: stream shorter than container header");
  CERESZ_CHECK(std::memcmp(stream.data(), kMagic, 4) == 0,
               "StreamCodec: bad magic — not a CereSZ stream");
  StreamHeader h;
  h.header_bytes = stream[4];
  h.block_size = read_u16(stream.data() + 6);
  h.element_count = read_u64(stream.data() + 8);
  const u64 eps_bits = read_u64(stream.data() + 16);
  std::memcpy(&h.eps_abs, &eps_bits, sizeof(h.eps_abs));
  const CodecConfig& cfg = block_codec_.config();
  CERESZ_CHECK(h.header_bytes == cfg.header_bytes,
               "StreamCodec: stream was written with a different block "
               "header width than this codec's configuration");
  CERESZ_CHECK(h.block_size == cfg.block_size,
               "StreamCodec: stream was written with a different block size "
               "than this codec's configuration");
  CERESZ_CHECK(h.eps_abs > 0.0 || h.element_count == 0,
               "StreamCodec: corrupt header (non-positive error bound)");
  return h;
}

std::vector<f32> StreamCodec::decompress(std::span<const u8> stream) const {
  const StreamHeader h = parse_header(stream);
  const u32 L = block_codec_.config().block_size;
  const u64 n_blocks = (h.element_count + L - 1) / L;

  // Sanity-check the claimed element count against the stream size before
  // allocating anything: every block record is at least header_bytes, so a
  // corrupt count cannot make us reserve unbounded memory.
  const u64 max_possible_blocks =
      (stream.size() - header_size()) / block_codec_.config().header_bytes;
  CERESZ_CHECK(n_blocks <= max_possible_blocks,
               "StreamCodec: corrupt header (element count exceeds what the "
               "stream could hold)");

  std::vector<f32> output(h.element_count);
  block_codec_.decode_blocks(stream.subspan(header_size()), h.eps_abs, output);
  return output;
}

}  // namespace ceresz::core

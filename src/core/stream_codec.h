// Whole-array compression: block partitioning, REL bound resolution,
// (de)compression statistics, and the reader side shared by every
// container reader.
//
// A StreamCodec stream is the one-chunk case of the CereSZ container
// (io/chunk_container.h). This is the host-side reference implementation
// of CereSZ — the WSE mapping in src/mapping writes bit-identical
// streams, which the integration tests assert — and it reads a container
// of any chunk count, the parallel engine's included.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "core/block_codec.h"
#include "core/config.h"
#include "io/chunk_container.h"

namespace ceresz::core {

/// Result of StreamCodec::compress.
struct CompressionResult {
  std::vector<u8> stream;  ///< container header + block records
  f64 eps_abs = 0.0;       ///< resolved absolute bound
  u64 element_count = 0;
  StreamStats stats;

  f64 compression_ratio() const {
    return stream.empty() ? 0.0
                          : static_cast<f64>(element_count * sizeof(f32)) /
                                static_cast<f64>(stream.size());
  }
};

/// Throws unless a container was written with `config`'s block header
/// width and block size.
void check_container_config(const io::ChunkedHeader& header,
                            const CodecConfig& config);

/// Decode chunk `index` of a parsed container into `out` (its
/// element_count values): verify the payload's CRC32C, decode its
/// records, and require that they consume the payload exactly. Throws
/// Error naming the chunk on corruption; returns false when `stop` fired
/// first.
bool decode_chunk(const BlockCodec& codec, std::span<const u8> stream,
                  const io::ParsedContainer& parsed, u64 index,
                  std::span<f32> out, const StopFn& stop = {});

class StreamCodec {
 public:
  /// `table` selects the kernels (see BlockCodec).
  explicit StreamCodec(CodecConfig config = {},
                       const KernelTable& table = kernels());

  const CodecConfig& config() const { return block_codec_.config(); }
  const BlockCodec& block_codec() const { return block_codec_; }

  /// Compress `data` under `bound` into a one-chunk container. A REL
  /// bound is resolved against the data's value range. The input may
  /// have any length; a partial tail block is zero-padded internally and
  /// trimmed on decompression.
  CompressionResult compress(std::span<const f32> data,
                             ErrorBound bound) const;

  /// Decompress a container of any chunk count written with this codec's
  /// configuration. Throws on corrupt input.
  std::vector<f32> decompress(std::span<const u8> stream) const;

 private:
  BlockCodec block_codec_;
};

}  // namespace ceresz::core

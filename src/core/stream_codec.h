// Whole-array compression: block partitioning, REL bound resolution, the
// self-describing stream container, and (de)compression statistics.
//
// This is the host-side reference implementation of CereSZ — the WSE
// mapping in src/mapping produces bit-identical streams, which the
// integration tests assert.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "core/block_codec.h"
#include "core/config.h"

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

class StreamCodec {
 public:
  /// `table` selects the kernels (see BlockCodec).
  explicit StreamCodec(CodecConfig config = {},
                       const KernelTable& table = kernels());

  const CodecConfig& config() const { return block_codec_.config(); }
  const BlockCodec& block_codec() const { return block_codec_; }

  /// Compress `data` under `bound`. A REL bound is resolved against the
  /// data's value range. The input may have any length; a partial tail
  /// block is zero-padded internally and trimmed on decompression.
  CompressionResult compress(std::span<const f32> data,
                             ErrorBound bound) const;

  /// Decompress a stream produced by compress(). Throws on corrupt input.
  std::vector<f32> decompress(std::span<const u8> stream) const;

  /// Container header size in bytes.
  static constexpr std::size_t header_size() { return 24; }

 private:
  struct StreamHeader {
    u32 header_bytes = 0;
    u32 block_size = 0;
    u64 element_count = 0;
    f64 eps_abs = 0.0;
  };
  StreamHeader parse_header(std::span<const u8> stream) const;

  BlockCodec block_codec_;
};

}  // namespace ceresz::core

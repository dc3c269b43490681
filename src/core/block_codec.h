// Per-block compression/decompression: the complete three-stage CereSZ
// kernel on one block of L floats, and the one loop that runs it over a
// span of blocks. This is exactly the computation that a pipeline (of
// whatever length) performs on one PE group. The block record layout
// (header width, sign bytes, bit-planes, zero-block rule) is known to
// this class alone: the stream codec and the parallel engine run
// encode_blocks/decode_blocks, and the wafer simulator's sub-stage
// executor runs compress/decompress on each block, so the bytes coming
// out of the simulated wafer are the host codec's by construction.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/config.h"
#include "core/kernels.h"

namespace ceresz::core {

/// Outcome of compressing one block.
struct BlockInfo {
  u32 fixed_length = 0;   ///< effective bits of the max |residual| (0 = zero block)
  bool zero_block = false;
  bool constant_block = false;  ///< constant-block shortcut taken (extension)
  u32 compressed_bytes = 0;
};

/// Aggregate statistics of one compression run.
struct StreamStats {
  u64 total_blocks = 0;
  u64 zero_blocks = 0;
  u64 constant_blocks = 0;  ///< constant-block shortcut hits (extension)
  u32 max_fixed_length = 0;
  f64 mean_fixed_length = 0.0;  ///< over non-zero blocks
  std::array<u64, 33> fl_histogram{};  ///< count of blocks per fixed length

  f64 zero_fraction() const {
    return total_blocks == 0
               ? 0.0
               : static_cast<f64>(zero_blocks) / static_cast<f64>(total_blocks);
  }

  /// Add another run's counts. mean_fixed_length is recomputed from the
  /// merged histogram, so merging runs in any grouping gives equal stats.
  void merge(const StreamStats& other);
};

/// Polled by the block loops once per batch of blocks (2048 elements, 64
/// blocks at L = 32: a few µs of work); true stops the loop.
using StopFn = std::function<bool()>;

class BlockCodec {
 public:
  /// Header value marking a constant block (extension); valid fixed
  /// lengths are 0..32, so 33 is free on the wire.
  static constexpr u32 kConstantMarker = 33;

  /// `table` selects the kernels; tests and benches pass
  /// scalar_kernels() to compare against the dispatched table.
  explicit BlockCodec(CodecConfig config,
                      const KernelTable& table = kernels());

  const CodecConfig& config() const { return config_; }
  const KernelTable& table() const { return *kernels_; }

  /// Compressed size of a block with fixed length `fl` (0 for zero blocks).
  std::size_t compressed_size(u32 fl) const;

  /// Upper bound on any block's compressed size (fl = 32).
  std::size_t max_compressed_size() const { return compressed_size(32); }

  /// Compress `input` (exactly block_size floats) with absolute bound
  /// `eps`; append the encoded bytes to `out`.
  BlockInfo compress(std::span<const f32> input, f64 eps,
                     std::vector<u8>& out) const;

  /// Decode one block starting at `in`; write block_size floats. Returns
  /// the number of input bytes consumed. Throws on a truncated or corrupt
  /// record.
  std::size_t decompress(std::span<const u8> in, f64 eps,
                         std::span<f32> output) const;

  /// Parse only the header at `in` and return its value: the block's
  /// fixed length (0 for a zero block), or kConstantMarker;
  /// compressed_size() of it is the record's size. Throws if the header
  /// is truncated or out of range for this config.
  u32 read_header(std::span<const u8> in) const;

  /// Compress `data` as consecutive blocks (a partial last block is
  /// zero-padded), append the records to `out` and merge their counts
  /// into `stats`. `out` grows once per batch of blocks and is trimmed to
  /// the records on return. Returns false when `stop` fired first; after
  /// that, or after a throw, `out` holds the whole records written so
  /// far and `stats` is unchanged.
  bool encode_blocks(std::span<const f32> data, f64 eps,
                     std::vector<u8>& out, StreamStats& stats,
                     const StopFn& stop = {}) const;

  /// Decode out.size() values from the records at the front of `in` (the
  /// padding of a partial last block is dropped). Returns the bytes
  /// consumed, or nullopt when `stop` fired first. Throws on a truncated
  /// or corrupt record.
  std::optional<std::size_t> decode_blocks(std::span<const u8> in, f64 eps,
                                           std::span<f32> out,
                                           const StopFn& stop = {}) const;

 private:
  /// Encode one block of block_size floats into `record`, which has room
  /// for max_compressed_size() bytes; abs and signs are scratch of
  /// block_size and block_size/8 entries.
  BlockInfo encode(const f32* block, f64 eps, u32* abs, u8* signs,
                   u8* record) const;

  CodecConfig config_;
  const KernelTable* kernels_;
};

}  // namespace ceresz::core

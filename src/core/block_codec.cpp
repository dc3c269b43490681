#include "core/block_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.h"
#include "common/little_endian.h"
#include "core/flenc.h"

namespace ceresz::core {

namespace {

/// Blocks up to this many elements keep their working memory on the
/// stack.
constexpr u32 kStackElems = 1024;

/// Elements per batch of the block loops: 2048 rounded down to whole
/// blocks, and at least one block. `out` grows and `stop` is polled once
/// per batch.
u64 batch_elems(u32 block_size) {
  return std::max<u64>(1, 2048 / block_size) * block_size;
}

/// Writes `v` little-endian into p[0..4).
void store_le32(u8* p, u32 v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(p, &v, sizeof(v));
}

/// Appends block records to `out` through a raw cursor. make_room() grows
/// `out` ahead of the committed records; the destructor trims it back to
/// them, so however the writer's scope ends (done, stopped or thrown)
/// `out` holds whole records only.
class RecordWriter {
 public:
  explicit RecordWriter(std::vector<u8>& out) : out_(out), end_(out.size()) {}
  RecordWriter(const RecordWriter&) = delete;
  RecordWriter& operator=(const RecordWriter&) = delete;
  ~RecordWriter() { out_.resize(end_); }

  /// Make `bytes` bytes writable at cursor().
  void make_room(std::size_t bytes) {
    if (out_.size() < end_ + bytes) out_.resize(end_ + bytes);
  }
  u8* cursor() { return out_.data() + end_; }
  /// The `bytes` at cursor() are a whole record.
  void commit(std::size_t bytes) { end_ += bytes; }

 private:
  std::vector<u8>& out_;
  std::size_t end_;
};

/// Working memory of the block kernels: |residuals|, sign bytes and a
/// zero-padded partial block. On the stack up to kStackElems elements;
/// larger blocks take one heap allocation per call, never one per block.
class BlockScratch {
 public:
  explicit BlockScratch(u32 block_size) {
    if (block_size > kStackElems) {
      heap_abs_.resize(block_size);
      heap_signs_.resize(block_size / 8);
      heap_tail_.resize(block_size);
      abs_ = heap_abs_.data();
      signs_ = heap_signs_.data();
      tail_ = heap_tail_.data();
    }
  }
  BlockScratch(const BlockScratch&) = delete;
  BlockScratch& operator=(const BlockScratch&) = delete;

  u32* abs() { return abs_; }
  u8* signs() { return signs_; }
  f32* tail() { return tail_; }

 private:
  std::array<u32, kStackElems> stack_abs_;
  std::array<u8, kStackElems / 8> stack_signs_;
  std::array<f32, kStackElems> stack_tail_;
  std::vector<u32> heap_abs_;
  std::vector<u8> heap_signs_;
  std::vector<f32> heap_tail_;
  u32* abs_ = stack_abs_.data();
  u8* signs_ = stack_signs_.data();
  f32* tail_ = stack_tail_.data();
};

}  // namespace

void StreamStats::merge(const StreamStats& other) {
  total_blocks += other.total_blocks;
  zero_blocks += other.zero_blocks;
  constant_blocks += other.constant_blocks;
  max_fixed_length = std::max(max_fixed_length, other.max_fixed_length);
  u64 fl_sum = 0;
  u64 blocks = 0;
  for (std::size_t fl = 0; fl < fl_histogram.size(); ++fl) {
    fl_histogram[fl] += other.fl_histogram[fl];
    fl_sum += fl * fl_histogram[fl];
    if (fl > 0) blocks += fl_histogram[fl];
  }
  mean_fixed_length =
      blocks > 0 ? static_cast<f64>(fl_sum) / static_cast<f64>(blocks) : 0.0;
}

BlockCodec::BlockCodec(CodecConfig config, const KernelTable& table)
    : config_(config), kernels_(&table) {
  config_.validate();
}

std::size_t BlockCodec::compressed_size(u32 fl) const {
  const std::size_t plane_bytes = config_.block_size / 8;
  if (fl == 0) return config_.header_bytes;
  if (fl == kConstantMarker) return config_.header_bytes + sizeof(i32);
  return config_.header_bytes + plane_bytes + fl * plane_bytes;
}

u32 BlockCodec::read_header(std::span<const u8> in) const {
  CERESZ_CHECK(in.size() >= config_.header_bytes,
               "BlockCodec: truncated block header");
  u32 fl = 0;
  for (u32 b = 0; b < config_.header_bytes; ++b) {
    fl |= static_cast<u32>(in[b]) << (8 * b);
  }
  const u32 max_valid =
      config_.constant_block_shortcut ? kConstantMarker : 32;
  CERESZ_CHECK(fl <= max_valid, "BlockCodec: corrupt header");
  return fl;
}

BlockInfo BlockCodec::encode(const f32* block, f64 eps, u32* abs, u8* signs,
                             u8* record) const {
  const u32 L = config_.block_size;
  const u32 bits = kernels_->encode_block(block, L, 2.0 * eps, abs, signs);

  BlockInfo info;
  u32 header = 0;
  if (config_.zero_block_shortcut && bits == 0) {
    // All-zero quantized block: a bare header with fixed length 0.
    info.zero_block = true;
  } else if (config_.constant_block_shortcut &&
             std::all_of(abs + 1, abs + L, [](u32 a) { return a == 0; })) {
    // Extension: residuals (p0, p1-p0, ...) of a constant block are
    // (p0, 0, 0, ...) — store just the value.
    info.constant_block = true;
    header = kConstantMarker;
  } else {
    // A non-zero block always has fl >= 1; fl == 0 on the wire means
    // "zero block", so when the shortcut is disabled an all-zero block is
    // encoded with fl = 1 (one explicit zero plane).
    info.fixed_length = std::max(effective_bits(bits), 1u);
    header = info.fixed_length;
  }

  // Little-endian, header_bytes wide. fl <= 33 always fits in one byte;
  // CereSZ pads to 4 bytes to honor the fabric's 32-bit transfer units.
  // One 4-byte store: `record` has room for a whole record of fl 32, and
  // the bytes past header_bytes belong to whatever is written next.
  store_le32(record, header);
  u8* body = record + config_.header_bytes;
  if (info.constant_block) {
    store_le32(body, (signs[0] & 1u) != 0 ? 0u - abs[0] : abs[0]);
  } else if (!info.zero_block) {
    std::memcpy(body, signs, L / 8);
    kernels_->bit_shuffle(abs, L, info.fixed_length, body + L / 8);
  }
  info.compressed_bytes = static_cast<u32>(compressed_size(header));
  return info;
}

BlockInfo BlockCodec::compress(std::span<const f32> input, f64 eps,
                               std::vector<u8>& out) const {
  const u32 L = config_.block_size;
  CERESZ_CHECK(input.size() == L, "BlockCodec::compress: wrong block size");
  CERESZ_CHECK(eps > 0.0, "BlockCodec::compress: eps must be positive");
  BlockScratch scratch(L);
  RecordWriter writer(out);
  writer.make_room(max_compressed_size());
  const BlockInfo info = encode(input.data(), eps, scratch.abs(),
                                scratch.signs(), writer.cursor());
  writer.commit(info.compressed_bytes);
  return info;
}

std::size_t BlockCodec::decompress(std::span<const u8> in, f64 eps,
                                   std::span<f32> output) const {
  const u32 L = config_.block_size;
  CERESZ_CHECK(output.size() == L, "BlockCodec::decompress: wrong block size");
  const u32 fl = read_header(in);
  const std::size_t total = compressed_size(fl);
  CERESZ_CHECK(in.size() >= total, "BlockCodec: truncated block record");

  if (fl == 0) {
    std::fill(output.begin(), output.end(), 0.0f);
    return total;
  }

  if (fl == kConstantMarker) {
    const u32 bits = read_u32(in.data() + config_.header_bytes);
    const f32 value =
        static_cast<f32>(static_cast<f64>(static_cast<i32>(bits)) * 2.0 * eps);
    std::fill(output.begin(), output.end(), value);
    return total;
  }

  const u8* signs = in.data() + config_.header_bytes;
  kernels_->decode_block(signs, signs + L / 8, fl, L, 2.0 * eps,
                         output.data());
  return total;
}

bool BlockCodec::encode_blocks(std::span<const f32> data, f64 eps,
                               std::vector<u8>& out, StreamStats& stats,
                               const StopFn& stop) const {
  const u32 L = config_.block_size;
  CERESZ_CHECK(eps > 0.0, "BlockCodec::encode_blocks: eps must be positive");
  const u64 n_blocks = (data.size() + L - 1) / L;
  const u64 batch = batch_elems(L);
  out.reserve(out.size() + n_blocks * max_compressed_size());
  BlockScratch scratch(L);
  RecordWriter writer(out);
  StreamStats run;
  for (u64 first = 0; first < data.size(); first += batch) {
    if (stop && stop()) return false;
    const u64 batch_end = std::min<u64>(data.size(), first + batch);
    writer.make_room((batch_end - first + L - 1) / L * max_compressed_size());
    for (u64 begin = first; begin < batch_end; begin += L) {
      const u64 count = std::min<u64>(L, batch_end - begin);
      const f32* block = data.data() + begin;
      if (count < L) {
        std::fill(scratch.tail(), scratch.tail() + L, 0.0f);
        std::copy_n(block, count, scratch.tail());
        block = scratch.tail();
      }
      const BlockInfo info = encode(block, eps, scratch.abs(), scratch.signs(),
                                    writer.cursor());
      writer.commit(info.compressed_bytes);
      ++run.total_blocks;
      if (info.zero_block) {
        ++run.zero_blocks;
        ++run.fl_histogram[0];
      } else if (info.constant_block) {
        ++run.constant_blocks;
      } else {
        run.max_fixed_length =
            std::max(run.max_fixed_length, info.fixed_length);
        ++run.fl_histogram[info.fixed_length];
      }
    }
  }
  stats.merge(run);
  return true;
}

std::optional<std::size_t> BlockCodec::decode_blocks(
    std::span<const u8> in, f64 eps, std::span<f32> out,
    const StopFn& stop) const {
  const u32 L = config_.block_size;
  const u64 batch = batch_elems(L);
  BlockScratch scratch(L);
  const std::span<f32> tail(scratch.tail(), L);
  std::size_t pos = 0;
  for (u64 first = 0; first < out.size(); first += batch) {
    if (stop && stop()) return std::nullopt;
    const u64 batch_end = std::min<u64>(out.size(), first + batch);
    for (u64 done = first; done < batch_end; done += L) {
      CERESZ_CHECK(pos <= in.size(), "BlockCodec: stream ends before its "
                                     "last block");
      const u64 count = std::min<u64>(L, batch_end - done);
      if (count == L) {
        pos += decompress(in.subspan(pos), eps, out.subspan(done, L));
      } else {
        pos += decompress(in.subspan(pos), eps, tail);
        std::copy_n(tail.begin(), count, out.begin() + done);
      }
    }
  }
  return pos;
}

}  // namespace ceresz::core

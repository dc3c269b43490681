// The CereSZ stream container ("CSZC"): every CereSZ stream, whoever
// writes it, is one of these. It holds independently decodable chunks of
// block records with a chunk table (offsets, element counts, per-chunk
// CRC32C), so readers can decompress chunks in parallel, access chunks
// randomly, and localize corruption to a single chunk. The parallel
// engine writes one chunk per chunk_elems elements; the single-stream
// writers (core::StreamCodec, mapping::WaferMapper) write one chunk.
//
// Layout (all integers little-endian):
//
//   header (48 bytes)
//     0  magic "CSZC"
//     4  u8  version (= 1)
//     5  u8  codec header_bytes (per-block header width of the payload)
//     6  u16 block_size
//     8  u32 flags (reserved, 0)
//     12 u32 chunk_count
//     16 u64 element_count
//     24 u64 chunk_elems       (elements per chunk, a multiple of
//                               block_size; last chunk may be short)
//     32 u64 eps_abs bits      (resolved absolute bound, f64 bit pattern)
//     40 u32 reserved (0)
//     44 u32 CRC32C of bytes [0, 44)
//
//   chunk table (32 bytes per entry, chunk_count entries)
//     u64 offset             (payload start, from byte 0 of the stream)
//     u64 compressed_bytes
//     u64 element_count
//     u32 CRC32C of the payload bytes
//     u32 reserved (0)
//   followed by u32 CRC32C of the whole table
//
//   payloads, in chunk order. Each payload is a run of CereSZ block
//   records (core::BlockCodec::encode_blocks). chunk_elems is a multiple
//   of the block size, so the concatenated payloads of any chunking are
//   the same block sequence, bit for bit.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"

namespace ceresz::io {

struct ChunkEntry {
  u64 offset = 0;            ///< payload start from byte 0 of the stream
  u64 compressed_bytes = 0;
  u64 element_count = 0;
  u32 crc32c = 0;            ///< CRC32C of the payload bytes
};

struct ChunkedHeader {
  u32 version = 1;
  u32 codec_header_bytes = 4;
  u32 block_size = 32;
  u32 chunk_count = 0;
  u64 element_count = 0;
  u64 chunk_elems = 0;
  f64 eps_abs = 0.0;

  static constexpr std::size_t kHeaderBytes = 48;
  static constexpr std::size_t kEntryBytes = 32;

  /// Bytes of the chunk table including its trailing CRC.
  std::size_t table_bytes() const {
    return static_cast<std::size_t>(chunk_count) * kEntryBytes + 4;
  }
  /// Offset of the first payload byte.
  std::size_t payload_start() const { return kHeaderBytes + table_bytes(); }
};

/// Serialize header + chunk table (with CRCs) into `out`, which must be
/// empty. Entry offsets must already be absolute and in ascending order.
void write_container_prefix(std::vector<u8>& out, const ChunkedHeader& header,
                            std::span<const ChunkEntry> entries);

/// Bytes in front of the payload of a one-chunk container of
/// `element_count` elements (an empty one has no table entry).
std::size_t single_chunk_prefix_bytes(u64 element_count);

/// Frame block records as the one-chunk container every single-stream
/// writer emits. `stream` holds single_chunk_prefix_bytes(element_count)
/// placeholder bytes followed by the records of `element_count` elements;
/// the header and chunk table are written over the placeholder.
/// chunk_elems is element_count rounded up to the block size, and an
/// empty input has zero chunks.
void frame_single_chunk(std::vector<u8>& stream, u32 codec_header_bytes,
                        u32 block_size, u64 element_count, f64 eps_abs);

/// Parsed view of a container.
struct ParsedContainer {
  ChunkedHeader header;
  std::vector<ChunkEntry> entries;
};

/// Parse and validate the header alone: magic, version, header CRC, and
/// that its fields are consistent. Throws ceresz::Error on any violation.
ChunkedHeader parse_container_header(std::span<const u8> stream);

/// Parse and validate header + chunk table: magic, version, header CRC,
/// table CRC, chunk_elems a multiple of block_size, offset monotonicity
/// and bounds, and that per-chunk element counts sum to the header's
/// element count. Throws ceresz::Error on any violation. Payload CRCs are
/// NOT checked here — that is the reader's per-chunk job (see
/// verified_payload), so corruption stays localized.
ParsedContainer parse_container(std::span<const u8> stream);

/// The payload bytes of chunk `index`, after checking them against the
/// chunk's CRC32C. Throws ceresz::Error naming the chunk on a mismatch.
std::span<const u8> verified_payload(std::span<const u8> stream,
                                     const ParsedContainer& parsed,
                                     u64 index);

}  // namespace ceresz::io

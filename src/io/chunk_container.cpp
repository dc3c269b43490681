#include "io/chunk_container.h"

#include <cstring>
#include <string>

#include "common/checksum.h"
#include "common/error.h"
#include "common/little_endian.h"

namespace ceresz::io {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'Z', 'C'};

}  // namespace

void write_container_prefix(std::vector<u8>& out, const ChunkedHeader& header,
                            std::span<const ChunkEntry> entries) {
  CERESZ_CHECK(out.empty(), "chunk container: output buffer must be empty");
  CERESZ_CHECK(entries.size() == header.chunk_count,
               "chunk container: entry count does not match header");
  CERESZ_CHECK(header.version <= 0xff && header.codec_header_bytes > 0 &&
                   header.codec_header_bytes <= 0xff,
               "chunk container: codec header width does not fit the u8 "
               "header field");
  CERESZ_CHECK(header.block_size > 0 && header.block_size <= 0xffff,
               "chunk container: block size does not fit the u16 header "
               "field");

  out.assign(kMagic, kMagic + 4);
  out.push_back(static_cast<u8>(header.version));
  out.push_back(static_cast<u8>(header.codec_header_bytes));
  append_u16(out, static_cast<u16>(header.block_size));
  append_u32(out, 0);  // flags
  append_u32(out, header.chunk_count);
  append_u64(out, header.element_count);
  append_u64(out, header.chunk_elems);
  u64 eps_bits;
  static_assert(sizeof(eps_bits) == sizeof(header.eps_abs));
  std::memcpy(&eps_bits, &header.eps_abs, sizeof(eps_bits));
  append_u64(out, eps_bits);
  append_u32(out, 0);  // reserved
  append_u32(out, crc32c(std::span<const u8>(out.data(), out.size())));
  CERESZ_CHECK(out.size() == ChunkedHeader::kHeaderBytes,
               "chunk container: header size drift");

  const std::size_t table_start = out.size();
  for (const ChunkEntry& e : entries) {
    append_u64(out, e.offset);
    append_u64(out, e.compressed_bytes);
    append_u64(out, e.element_count);
    append_u32(out, e.crc32c);
    append_u32(out, 0);  // reserved
  }
  append_u32(out, crc32c(std::span<const u8>(out.data() + table_start,
                                             out.size() - table_start)));
  CERESZ_CHECK(out.size() == header.payload_start(),
               "chunk container: table size drift");
}

std::size_t single_chunk_prefix_bytes(u64 element_count) {
  ChunkedHeader h;
  h.chunk_count = element_count > 0 ? 1 : 0;
  return h.payload_start();
}

void frame_single_chunk(std::vector<u8>& stream, u32 codec_header_bytes,
                        u32 block_size, u64 element_count, f64 eps_abs) {
  CERESZ_CHECK(block_size > 0, "chunk container: zero block size");
  ChunkedHeader h;
  h.codec_header_bytes = codec_header_bytes;
  h.block_size = block_size;
  h.chunk_count = element_count > 0 ? 1 : 0;
  h.element_count = element_count;
  h.chunk_elems = (element_count / block_size +
                   (element_count % block_size != 0 ? 1 : 0)) *
                  block_size;
  h.eps_abs = eps_abs;
  const std::size_t start = h.payload_start();
  CERESZ_CHECK(stream.size() >= start,
               "chunk container: no room reserved for the prefix");
  std::vector<ChunkEntry> entries(h.chunk_count);
  if (element_count > 0) {
    const std::span<const u8> payload(stream.data() + start,
                                      stream.size() - start);
    entries[0] = {start, payload.size(), element_count, crc32c(payload)};
  } else {
    CERESZ_CHECK(stream.size() == start,
                 "chunk container: records for an empty input");
  }
  std::vector<u8> prefix;
  write_container_prefix(prefix, h, entries);
  std::copy(prefix.begin(), prefix.end(), stream.begin());
}

ChunkedHeader parse_container_header(std::span<const u8> stream) {
  CERESZ_CHECK(stream.size() >= ChunkedHeader::kHeaderBytes,
               "chunk container: stream shorter than header");
  CERESZ_CHECK(std::memcmp(stream.data(), kMagic, 4) == 0,
               "chunk container: bad magic — not a CereSZ stream");

  const u32 stored_header_crc = read_u32(stream.data() + 44);
  CERESZ_CHECK(crc32c(stream.subspan(0, 44)) == stored_header_crc,
               "chunk container: header CRC mismatch (corrupt header)");

  ChunkedHeader h;
  h.version = stream[4];
  h.codec_header_bytes = stream[5];
  h.block_size = read_u16(stream.data() + 6);
  h.chunk_count = read_u32(stream.data() + 12);
  h.element_count = read_u64(stream.data() + 16);
  h.chunk_elems = read_u64(stream.data() + 24);
  const u64 eps_bits = read_u64(stream.data() + 32);
  std::memcpy(&h.eps_abs, &eps_bits, sizeof(h.eps_abs));

  CERESZ_CHECK(h.version == 1, "chunk container: unsupported version");
  CERESZ_CHECK(h.block_size > 0, "chunk container: corrupt header (block size)");
  CERESZ_CHECK(h.codec_header_bytes > 0,
               "chunk container: corrupt header (zero codec header width)");
  CERESZ_CHECK(h.eps_abs > 0.0 || h.element_count == 0,
               "chunk container: corrupt header (non-positive error bound)");
  CERESZ_CHECK(h.chunk_elems > 0 || h.element_count == 0,
               "chunk container: corrupt header (zero chunk size)");
  // Whole blocks per chunk: consecutive chunks' records then form one
  // block sequence, and only the last chunk can end in a partial block.
  CERESZ_CHECK(h.chunk_elems % h.block_size == 0,
               "chunk container: corrupt header (chunk size is not a "
               "multiple of the block size)");
  // Structural consistency: the chunk count must be exactly the one implied
  // by element_count / chunk_elems. Computed without ceil-style addition so
  // hostile 2^64-scale values cannot wrap.
  const u64 expected_chunks =
      h.element_count == 0
          ? 0
          : h.element_count / h.chunk_elems +
                (h.element_count % h.chunk_elems != 0 ? 1 : 0);
  CERESZ_CHECK(h.chunk_count == expected_chunks,
               "chunk container: chunk count does not match element count "
               "and chunk size");
  return h;
}

ParsedContainer parse_container(std::span<const u8> stream) {
  ParsedContainer parsed;
  parsed.header = parse_container_header(stream);
  const ChunkedHeader& h = parsed.header;
  // Bound the table size by the stream before allocating for it.
  CERESZ_CHECK(stream.size() >= ChunkedHeader::kHeaderBytes + h.table_bytes(),
               "chunk container: truncated chunk table");

  const u8* table = stream.data() + ChunkedHeader::kHeaderBytes;
  const std::size_t entry_bytes =
      static_cast<std::size_t>(h.chunk_count) * ChunkedHeader::kEntryBytes;
  const u32 stored_table_crc = read_u32(table + entry_bytes);
  CERESZ_CHECK(
      crc32c(std::span<const u8>(table, entry_bytes)) == stored_table_crc,
      "chunk container: chunk table CRC mismatch (corrupt table)");

  parsed.entries.resize(h.chunk_count);
  u64 expected_offset = h.payload_start();
  u64 total_elems = 0;
  for (u32 i = 0; i < h.chunk_count; ++i) {
    const u8* p = table + static_cast<std::size_t>(i) * ChunkedHeader::kEntryBytes;
    ChunkEntry& e = parsed.entries[i];
    e.offset = read_u64(p);
    e.compressed_bytes = read_u64(p + 8);
    e.element_count = read_u64(p + 16);
    e.crc32c = read_u32(p + 24);
    CERESZ_CHECK(e.offset == expected_offset,
                 "chunk container: chunk offsets are not contiguous");
    // expected_offset <= stream.size() holds inductively, so the subtraction
    // cannot wrap — unlike `offset + compressed_bytes`, which a hostile
    // compressed_bytes near 2^64 would overflow past the bound.
    CERESZ_CHECK(e.compressed_bytes <= stream.size() - e.offset,
                 "chunk container: chunk payload extends past the stream");
    CERESZ_CHECK(e.element_count > 0 && e.element_count <= h.chunk_elems,
                 "chunk container: chunk element count out of range");
    // Overflow-checked accumulation: each entry may claim at most the
    // elements still unaccounted for, so the sum can never wrap around to
    // h.element_count and smuggle oversized chunks past the total check.
    CERESZ_CHECK(e.element_count <= h.element_count - total_elems,
                 "chunk container: chunk element counts exceed the header's "
                 "element count");
    CERESZ_CHECK(i + 1 == h.chunk_count || e.element_count == h.chunk_elems,
                 "chunk container: only the last chunk may be short");
    // Anti-bomb bound: every block record is at least codec_header_bytes
    // wide, so a chunk of element_count elements needs at least
    // ceil(element_count / block_size) * codec_header_bytes payload bytes.
    // This ties the decoded size to the actual stream size before the
    // reader allocates anything. Division form avoids overflow.
    const u64 min_blocks = e.element_count / h.block_size +
                           (e.element_count % h.block_size != 0 ? 1 : 0);
    CERESZ_CHECK(min_blocks <= e.compressed_bytes / h.codec_header_bytes,
                 "chunk container: chunk payload too small for its element "
                 "count");
    expected_offset += e.compressed_bytes;
    total_elems += e.element_count;
  }
  CERESZ_CHECK(total_elems == h.element_count,
               "chunk container: chunk element counts do not sum to the "
               "header's element count");
  CERESZ_CHECK(expected_offset == stream.size(),
               "chunk container: trailing bytes after the last chunk");
  return parsed;
}

std::span<const u8> verified_payload(std::span<const u8> stream,
                                     const ParsedContainer& parsed,
                                     u64 index) {
  const ChunkEntry& e = parsed.entries[index];
  const std::span<const u8> payload =
      stream.subspan(e.offset, e.compressed_bytes);
  CERESZ_CHECK(crc32c(payload) == e.crc32c,
               "chunk " + std::to_string(index) +
                   " failed its CRC32C check (corrupt payload)");
  return payload;
}

}  // namespace ceresz::io

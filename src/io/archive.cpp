#include "io/archive.h"

#include <cstring>
#include <numeric>

#include "common/error.h"
#include "common/little_endian.h"
#include "io/file_io.h"

namespace ceresz::io {

namespace {

constexpr char kMagic[4] = {'C', 'S', 'Z', 'A'};
constexpr u32 kVersion = 1;

class Reader {
 public:
  explicit Reader(std::span<const u8> bytes) : bytes_(bytes) {}

  u32 u32_at() { return static_cast<u32>(u_bytes(4)); }
  u64 u64_at() { return u_bytes(8); }

  std::string string_at() {
    const u64 len = u32_at();
    CERESZ_CHECK(len <= 4096, "Archive: absurd string length");
    need(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  std::span<const u8> blob_at() {
    const u64 len = u64_at();
    need(len);
    auto out = bytes_.subspan(pos_, len);
    pos_ += len;
    return out;
  }

  bool done() const { return pos_ == bytes_.size(); }

 private:
  u64 u_bytes(int n) {
    need(n);
    u64 v = 0;
    for (int b = 0; b < n; ++b) v |= static_cast<u64>(bytes_[pos_ + b]) << (8 * b);
    pos_ += n;
    return v;
  }
  void need(u64 n) {
    CERESZ_CHECK(pos_ + n <= bytes_.size(), "Archive: truncated input");
  }

  std::span<const u8> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

f64 ArchiveEntry::compression_ratio() const {
  const std::size_t original = std::accumulate(dims.begin(), dims.end(),
                                               std::size_t{1},
                                               std::multiplies<>()) *
                               sizeof(f32);
  return stream.empty() ? 0.0
                        : static_cast<f64>(original) /
                              static_cast<f64>(stream.size());
}

Archive Archive::compress_fields(const std::vector<data::Field>& fields,
                                 core::ErrorBound bound,
                                 const core::StreamCodec& codec) {
  Archive archive;
  archive.entries_.reserve(fields.size());
  for (const auto& field : fields) {
    ArchiveEntry entry;
    entry.name = field.name;
    entry.dims = field.dims;
    entry.stream = codec.compress(field.view(), bound).stream;
    archive.entries_.push_back(std::move(entry));
  }
  return archive;
}

std::vector<u8> Archive::serialize() const {
  std::vector<u8> out(kMagic, kMagic + 4);
  append_u32(out, kVersion);
  append_u32(out, static_cast<u32>(entries_.size()));
  for (const auto& entry : entries_) {
    append_u32(out, static_cast<u32>(entry.name.size()));
    out.insert(out.end(), entry.name.begin(), entry.name.end());
    append_u32(out, static_cast<u32>(entry.dims.size()));
    for (std::size_t d : entry.dims) append_u64(out, d);
    append_u64(out, entry.stream.size());
    out.insert(out.end(), entry.stream.begin(), entry.stream.end());
  }
  return out;
}

Archive Archive::parse(std::span<const u8> bytes) {
  CERESZ_CHECK(bytes.size() >= 12 && std::memcmp(bytes.data(), kMagic, 4) == 0,
               "Archive: bad magic");
  Reader r(bytes.subspan(4));
  const u32 version = r.u32_at();
  CERESZ_CHECK(version == kVersion, "Archive: unsupported version");
  const u32 count = r.u32_at();
  CERESZ_CHECK(count <= 1u << 20, "Archive: absurd entry count");

  Archive archive;
  archive.entries_.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    ArchiveEntry entry;
    entry.name = r.string_at();
    const u32 ndims = r.u32_at();
    CERESZ_CHECK(ndims >= 1 && ndims <= 8, "Archive: corrupt dims");
    entry.dims.resize(ndims);
    for (u32 d = 0; d < ndims; ++d) entry.dims[d] = r.u64_at();
    const auto blob = r.blob_at();
    entry.stream.assign(blob.begin(), blob.end());
    archive.entries_.push_back(std::move(entry));
  }
  CERESZ_CHECK(r.done(), "Archive: trailing bytes after last entry");
  return archive;
}

void Archive::save(const std::filesystem::path& path) const {
  write_bytes(path, serialize());
}

Archive Archive::load(const std::filesystem::path& path) {
  return parse(read_bytes(path));
}

data::Field Archive::decompress_field(std::size_t index,
                                      const core::StreamCodec& codec) const {
  CERESZ_CHECK(index < entries_.size(), "Archive: entry index out of range");
  const auto& entry = entries_[index];
  data::Field field;
  field.name = entry.name;
  field.dataset = "archive";
  field.dims = entry.dims;
  field.values = codec.decompress(entry.stream);
  CERESZ_CHECK(field.values.size() == field.dim_product(),
               "Archive: decompressed size does not match entry dims");
  return field;
}

std::optional<std::size_t> Archive::find(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return i;
  }
  return std::nullopt;
}

f64 Archive::total_ratio() const {
  std::size_t original = 0;
  std::size_t compressed = 0;
  for (const auto& entry : entries_) {
    original += std::accumulate(entry.dims.begin(), entry.dims.end(),
                                std::size_t{1}, std::multiplies<>()) *
                sizeof(f32);
    compressed += entry.stream.size();
  }
  return compressed == 0 ? 0.0
                         : static_cast<f64>(original) /
                               static_cast<f64>(compressed);
}

}  // namespace ceresz::io

// Dataset archiving: compress every field of a dataset into one archive
// file, inspect it, and restore a field — the workflow a simulation
// campaign would use to keep checkpoint storage under control.
//
//   ./dataset_archive [dataset] [rel_bound]
//
// dataset: cesm | hurricane | qmcpack | nyx | rtm | hacc (default qmcpack)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "ceresz.h"

namespace {

ceresz::data::DatasetId parse_dataset(const char* name) {
  using ceresz::data::DatasetId;
  if (std::strcmp(name, "cesm") == 0) return DatasetId::kCesmAtm;
  if (std::strcmp(name, "hurricane") == 0) return DatasetId::kHurricane;
  if (std::strcmp(name, "nyx") == 0) return DatasetId::kNyx;
  if (std::strcmp(name, "rtm") == 0) return DatasetId::kRtm;
  if (std::strcmp(name, "hacc") == 0) return DatasetId::kHacc;
  return DatasetId::kQmcpack;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ceresz;
  const data::DatasetId id =
      parse_dataset(argc > 1 ? argv[1] : "qmcpack");
  const double rel = argc > 2 ? std::atof(argv[2]) : 1e-3;
  const auto& spec = data::dataset_spec(id);

  std::printf("archiving synthetic %s (%u fields) at REL %g\n\n", spec.name,
              spec.fields_generated, rel);
  const auto fields = data::generate_dataset(id, 42, 0.4);

  const core::StreamCodec codec;
  WallTimer timer;
  const io::Archive archive = io::Archive::compress_fields(
      fields, core::ErrorBound::relative(rel), codec);
  const double elapsed = timer.seconds();

  const auto path = std::filesystem::temp_directory_path() /
                    (std::string(spec.name) + ".csza");
  archive.save(path);

  std::size_t raw = 0;
  for (const auto& f : fields) raw += f.bytes();
  std::printf("wrote %s: %s raw -> %s (%.2fx) in %.2f s\n\n",
              path.c_str(), fmt_bytes(raw).c_str(),
              fmt_bytes(archive.serialize().size()).c_str(),
              archive.total_ratio(), elapsed);

  TextTable table({"field", "dims", "compressed", "ratio", "PSNR dB"});
  const io::Archive loaded = io::Archive::load(path);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const auto& entry = loaded.entries()[i];
    const data::Field back = loaded.decompress_field(i, codec);
    std::string dims;
    for (std::size_t d : entry.dims) {
      if (!dims.empty()) dims += 'x';
      dims += std::to_string(d);
    }
    table.add_row({entry.name, dims, fmt_bytes(entry.stream.size()),
                   fmt_f64(entry.compression_ratio(), 2),
                   fmt_f64(metrics::psnr(fields[i].view(), back.values), 1)});
  }
  std::printf("%s\n", table.render().c_str());
  std::filesystem::remove(path);
  return 0;
}

// Google-benchmark microbenchmarks of the host-side CereSZ kernels: the
// per-stage primitives, the block codec, and the stream codec. These are
// the numbers a CPU deployment of the same algorithm would care about,
// and a regression guard for the library itself.
//
// Every benchmark is registered once per kernel table — "scalar" (the
// portable reference) and, when the host has it, the dispatched "avx2"
// table — so one run shows each speed-up as a within-run ratio, e.g.
// BM_BitShuffle/scalar/12 against BM_BitShuffle/avx2/12.
#include <benchmark/benchmark.h>

#include <string>

#include "ceresz.h"
#include "core/kernels.h"

namespace {

using namespace ceresz;
using core::KernelTable;

std::vector<f32> bench_data(std::size_t n) {
  Rng rng(7);
  std::vector<f32> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<f32>(std::sin(i / 64.0) + 0.01 * rng.next_gaussian());
  }
  return v;
}

void BM_Prequant(benchmark::State& state, const KernelTable* k) {
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  std::vector<i32> out(data.size());
  for (auto _ : state) {
    k->prequant(data.data(), out.data(), data.size(), 2e-3);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}

void BM_ValueBounds(benchmark::State& state, const KernelTable* k) {
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->value_bounds(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}

void BM_LorenzoForward(benchmark::State& state, const KernelTable* k) {
  std::vector<i32> data(static_cast<std::size_t>(state.range(0)));
  Rng rng(3);
  for (auto& v : data) v = static_cast<i32>(rng.next_below(1000));
  std::vector<i32> out(data.size());
  for (auto _ : state) {
    k->lorenzo_forward(data.data(), out.data(), data.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(i32));
}

void BM_BitShuffle(benchmark::State& state, const KernelTable* k) {
  const u32 fl = static_cast<u32>(state.range(0));
  std::vector<u32> absv(32);
  Rng rng(5);
  for (auto& v : absv) v = static_cast<u32>(rng.next_below(u64{1} << fl));
  std::vector<u8> out(fl * 4);
  for (auto _ : state) {
    k->bit_shuffle(absv.data(), absv.size(), fl, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_BlockCompress(benchmark::State& state, const KernelTable* k) {
  const core::BlockCodec codec{core::CodecConfig{}, *k};
  const auto data = bench_data(32);
  std::vector<u8> out;
  for (auto _ : state) {
    out.clear();
    codec.compress(data, 1e-3, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 128);
}

/// One engine chunk (64 Ki elements) through encode_blocks: against
/// BM_BlockCompress (one block per call) it shows the block loop's own
/// cost per block.
void BM_EncodeBlocks(benchmark::State& state, const KernelTable* k) {
  const core::BlockCodec codec{core::CodecConfig{}, *k};
  const auto data = bench_data(std::size_t{1} << 16);
  std::vector<u8> out;
  for (auto _ : state) {
    out.clear();
    core::StreamStats stats;
    codec.encode_blocks(data, 1e-3, out, stats);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
  state.SetItemsProcessed(state.iterations() * data.size() / 32);
}

void BM_StreamCompress(benchmark::State& state, const KernelTable* k) {
  const core::StreamCodec codec{core::CodecConfig{}, *k};
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
    benchmark::DoNotOptimize(result.stream.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}

void BM_StreamDecompress(benchmark::State& state, const KernelTable* k) {
  const core::StreamCodec codec{core::CodecConfig{}, *k};
  const auto data = bench_data(static_cast<std::size_t>(state.range(0)));
  const auto result = codec.compress(data, core::ErrorBound::absolute(1e-3));
  for (auto _ : state) {
    auto back = codec.decompress(result.stream);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() * data.size() * sizeof(f32));
}

void register_all(const KernelTable& k) {
  const auto name = [&](const char* bm) {
    return std::string(bm) + "/" + k.isa;
  };
  benchmark::RegisterBenchmark(name("BM_Prequant").c_str(), BM_Prequant, &k)
      ->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
  benchmark::RegisterBenchmark(name("BM_ValueBounds").c_str(),
                               BM_ValueBounds, &k)
      ->Arg(1 << 16)->Arg(1 << 21);
  benchmark::RegisterBenchmark(name("BM_LorenzoForward").c_str(),
                               BM_LorenzoForward, &k)
      ->Arg(1 << 16)->Arg(1 << 20);
  benchmark::RegisterBenchmark(name("BM_BitShuffle").c_str(), BM_BitShuffle,
                               &k)
      ->Arg(4)->Arg(12)->Arg(17)->Arg(32);
  benchmark::RegisterBenchmark(name("BM_BlockCompress").c_str(),
                               BM_BlockCompress, &k);
  benchmark::RegisterBenchmark(name("BM_EncodeBlocks").c_str(),
                               BM_EncodeBlocks, &k);
  benchmark::RegisterBenchmark(name("BM_StreamCompress").c_str(),
                               BM_StreamCompress, &k)
      ->Arg(1 << 16)->Arg(1 << 20);
  benchmark::RegisterBenchmark(name("BM_StreamDecompress").c_str(),
                               BM_StreamDecompress, &k)
      ->Arg(1 << 16)->Arg(1 << 20);
}

}  // namespace

int main(int argc, char** argv) {
  register_all(core::scalar_kernels());
  if (&core::kernels() != &core::scalar_kernels()) {
    register_all(core::kernels());
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

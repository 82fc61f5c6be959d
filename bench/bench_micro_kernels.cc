// Microbenchmarks (google-benchmark) for the hot kernels: distance,
// dot product, LSH hashing (one compound hash, and a whole radius through
// each packed projection kernel), compound-hash folding, CRC32C (the
// dispatched path and the table reference), RNG, and the simulated-device
// submit/poll path.
#include <benchmark/benchmark.h>

#include <vector>

#include "lsh/hash_family.h"
#include "lsh/hash_function.h"
#include "lsh/projection_kernels.h"
#include "storage/memory_device.h"
#include "util/aligned_buffer.h"
#include "util/crc32c.h"
#include "util/distance.h"
#include "util/rng.h"

namespace e2lshos {
namespace {

void BM_SquaredL2(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<float> a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    a[i] = rng.NextFloat();
    b[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::SquaredL2(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * d * 2 * sizeof(float));
}
BENCHMARK(BM_SquaredL2)->Arg(100)->Arg(128)->Arg(420)->Arg(784)->Arg(960);

void BM_Dot(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<float> a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    a[i] = rng.NextFloat();
    b[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Dot(a.data(), b.data(), d));
  }
  state.SetBytesProcessed(state.iterations() * d * 2 * sizeof(float));
}
BENCHMARK(BM_Dot)->Arg(128)->Arg(960);

void BM_CompoundHash32(benchmark::State& state) {
  const uint32_t d = 128;
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  util::Rng rng(3);
  lsh::CompoundHash g(d, m, 4.0, rng);
  std::vector<float> p(d);
  for (auto& v : p) v = rng.NextFloat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Hash32(p.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompoundHash32)->Arg(8)->Arg(16)->Arg(28);

// One radius of the SIFT-scale family the engine hashes per query step:
// d = 128, L = 12, m = 21 (252 functions).
lsh::E2lshParams HashAllParams() {
  lsh::E2lshParams p;
  p.w = 4.0;
  p.seed = 5;
  p.L = 12;
  p.m = 21;
  p.radii = {1.0};
  return p;
}

void BM_HashAll(benchmark::State& state) {
  const uint32_t d = 128;
  const lsh::E2lshParams params = HashAllParams();
  lsh::HashFamily family(d, params);
  util::Rng rng(6);
  std::vector<float> p(d);
  for (auto& v : p) v = rng.NextFloat();
  std::vector<uint32_t> out(params.L);
  for (auto _ : state) {
    family.HashAll(0, p.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(lsh::kernels::Active().name);
}
BENCHMARK(BM_HashAll);

// The dot-product pass of HashAll on each kernel this CPU runs (arg =
// index into kernels::Supported(), 0 = scalar reference).
void BM_ProjectionDots(benchmark::State& state) {
  const auto supported = lsh::kernels::Supported();
  const size_t which = static_cast<size_t>(state.range(0));
  if (which >= supported.size()) {
    state.SkipWithError("kernel not supported on this CPU");
    return;
  }
  const uint32_t d = 128, stride = 256;
  util::Rng rng(7);
  std::vector<float> mat(static_cast<size_t>(d) * stride), p(d), dots(stride);
  for (auto& v : mat) v = static_cast<float>(rng.Gaussian());
  for (auto& v : p) v = rng.NextFloat();
  for (auto _ : state) {
    supported[which].dots(mat.data(), stride, p.data(), d, stride, dots.data());
    benchmark::DoNotOptimize(dots.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(supported[which].name);
}
BENCHMARK(BM_ProjectionDots)->Arg(0)->Arg(1)->Arg(2);

template <bool kTable>
void BM_Crc32c(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> block(len);
  util::Rng rng(8);
  for (auto& b : block) b = static_cast<uint8_t>(rng.NextU32());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kTable ? util::crc_internal::Crc32cExtendTable(0xFFFFFFFFu, block.data(), len)
               : util::Crc32cExtend(0xFFFFFFFFu, block.data(), len));
  }
  state.SetBytesProcessed(state.iterations() * len);
}
BENCHMARK_TEMPLATE(BM_Crc32c, false)->Arg(512)->Arg(4096);
BENCHMARK_TEMPLATE(BM_Crc32c, true)->Arg(512)->Arg(4096);

void BM_Fold(benchmark::State& state) {
  std::vector<int32_t> vals(28);
  for (int i = 0; i < 28; ++i) vals[i] = i * 2654435761;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh::CompoundHash::Fold(vals.data(), 28));
  }
}
BENCHMARK(BM_Fold);

void BM_RngGaussian(benchmark::State& state) {
  util::Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Gaussian());
}
BENCHMARK(BM_RngGaussian);

void BM_MemoryDeviceSubmitPoll(benchmark::State& state) {
  auto dev = storage::MemoryDevice::Create(16 << 20);
  if (!dev.ok()) {
    state.SkipWithError("device create failed");
    return;
  }
  util::AlignedBuffer buf(512);
  storage::IoCompletion comp;
  uint64_t i = 0;
  for (auto _ : state) {
    storage::IoRequest req{(i++ % 1024) * 512, 512, buf.data(), i};
    benchmark::DoNotOptimize((*dev)->SubmitRead(req));
    benchmark::DoNotOptimize((*dev)->PollCompletions(&comp, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryDeviceSubmitPoll);

// The engine's access shape on a cold image: 32 random 512 B reads over
// 96 MB (batch-mem's image size, far beyond the last-level cache), then
// one poll. The case above cycles over 512 KB, which stays cached and
// cannot show whether the reads' DRAM misses overlap.
void BM_MemoryDeviceSubmitPollCold(benchmark::State& state) {
  constexpr uint64_t kImageBytes = 96ULL << 20;
  constexpr uint32_t kBatch = 32;
  auto dev = storage::MemoryDevice::Create(kImageBytes);
  if (!dev.ok()) {
    state.SkipWithError("device create failed");
    return;
  }
  // Touch every page so reads hit real DRAM, not the shared zero page.
  std::vector<uint8_t> chunk(1 << 20, 0x5a);
  for (uint64_t off = 0; off < kImageBytes; off += chunk.size()) {
    if (!(*dev)->Write(off, chunk.data(), chunk.size()).ok()) {
      state.SkipWithError("image write failed");
      return;
    }
  }
  std::vector<uint64_t> offsets(1 << 16);
  util::Rng rng(11);
  for (auto& off : offsets) {
    off = rng.NextU64Below(kImageBytes / storage::kSectorBytes) *
          storage::kSectorBytes;
  }
  util::AlignedBuffer bufs(kBatch * storage::kSectorBytes);
  storage::IoCompletion comps[kBatch];
  size_t next = 0;
  for (auto _ : state) {
    for (uint32_t i = 0; i < kBatch; ++i) {
      storage::IoRequest req{offsets[next++ % offsets.size()],
                             storage::kSectorBytes,
                             bufs.data() + i * storage::kSectorBytes, i};
      benchmark::DoNotOptimize((*dev)->SubmitRead(req));
    }
    benchmark::DoNotOptimize((*dev)->PollCompletions(comps, kBatch));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MemoryDeviceSubmitPollCold);

}  // namespace
}  // namespace e2lshos

BENCHMARK_MAIN();

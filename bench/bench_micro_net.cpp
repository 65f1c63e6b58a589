// Microbenchmarks of the wire layer's per-frame cost: the payload checksum
// over a cached 64-px response (100,560 bytes), which every hop computes
// once (worker, router, client). FNV-1a was the version-1 frame checksum
// and is still the cache-key hash; XXH64 is the version-2 one.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"

namespace {

using namespace ldmo;

using HashFn = std::uint64_t (*)(const void*, std::size_t);

/// A cached 64-px response's payload: three 64x64 f64 grids plus the
/// result's metrology.
constexpr int kResponseBytes = 100560;

void BM_PayloadChecksum(benchmark::State& state, HashFn hash) {
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  for (auto _ : state)
    benchmark::DoNotOptimize(hash(payload.data(), payload.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK_CAPTURE(BM_PayloadChecksum, fnv1a,
                  static_cast<HashFn>(&common::fnv1a))
    ->Arg(kResponseBytes)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_PayloadChecksum, xxh64, &common::xxh64)
    ->Arg(kResponseBytes)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

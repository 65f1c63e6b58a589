// Allocation probe for the micro benches: alloc_probe.cpp replaces the
// global operator new/delete pair with counting wrappers so a benchmark
// can report allocations-per-iteration alongside wall time. Link
// alloc_probe.cpp into every binary that includes this header. The
// replacements live in their own translation unit so no caller inlines a
// new/delete pair down to malloc/free.
//
// The probe counts every heap allocation in the process, including
// google-benchmark's own bookkeeping, so measure deltas around the timed
// loop and expect a small constant floor rather than a hard zero.
#pragma once

#include <benchmark/benchmark.h>

#include "obs/metrics.h"

namespace bench_alloc {

/// Heap allocations made by the process so far.
unsigned long long allocations();

/// Snapshot-and-report helper: construct before the timed loop, call
/// finish() after it to attach allocations-per-iteration and workspace
/// pool hit/miss counters to the benchmark state. The workspace counters
/// read 0 when no pooled path ran.
struct PoolProbe {
  unsigned long long allocs0 = allocations();
  long long hits0 = ldmo::obs::counter("workspace.hits").value();
  long long misses0 = ldmo::obs::counter("workspace.misses").value();

  void finish(benchmark::State& state) {
    const double iters = static_cast<double>(state.iterations());
    const double allocs =
        static_cast<double>(allocations() - allocs0);
    const double hits = static_cast<double>(
        ldmo::obs::counter("workspace.hits").value() - hits0);
    const double misses = static_cast<double>(
        ldmo::obs::counter("workspace.misses").value() - misses0);
    state.counters["allocs_per_iter"] = iters > 0.0 ? allocs / iters : 0.0;
    state.counters["pool_checkouts_per_iter"] =
        iters > 0.0 ? (hits + misses) / iters : 0.0;
    state.counters["pool_hit_rate"] =
        (hits + misses) > 0.0 ? hits / (hits + misses) : 0.0;
  }
};

}  // namespace bench_alloc

// E8 -- Physical clustering of composite objects (paper §4.2, KIM9Od).
//
// The paper lists physical clustering among the components that "require
// new architectural techniques for satisfactory performance". KIMDB's
// insert hint places components on (or adjacent to) their parent's page.
// This benchmark builds the same CAD assembly clustered and scattered,
// then scans the composite through a deliberately small buffer pool and
// reports wall time plus buffer-pool misses per scan.
//
// Expected shape: the clustered layout touches ~(components / objects-per-
// page) pages; the scattered layout touches ~1 page per component, so its
// miss count -- and, under a cold/small pool, its time -- is roughly an
// order of magnitude higher.

#include <benchmark/benchmark.h>

#include "workloads/bench_env.h"
#include "workloads/workloads.h"

namespace kimdb {
namespace bench {
namespace {

// Small pool so the working set does not fit when scattered.
constexpr size_t kSmallPool = 64;
// Object cache off: a cached component never reaches the pool, so with
// the default cache every scan after the first reads 0 misses in either
// layout and misses_per_scan would no longer measure placement.
constexpr size_t kNoObjectCache = 0;

struct E8Fixture {
  std::unique_ptr<Env> env;
  CadSchema schema;
  std::unique_ptr<CompositeManager> composites;
  Oid root;
  uint64_t components = 0;

  E8Fixture(size_t fanout, size_t depth, bool clustered) {
    env = Env::Create(kSmallPool, kNoObjectCache);
    schema = CreateCadSchema(env->catalog.get());
    BENCH_ASSIGN(cm, CompositeManager::Attach(env->store.get()));
    composites = std::move(cm);
    BENCH_ASSIGN(r, BuildAssembly(env->store.get(), composites.get(),
                                  schema, fanout, depth, clustered, 77));
    root = r;
    BENCH_ASSIGN(n, composites->ComponentCount(root));
    components = n;
  }

  // Full composite scan: visit every component and materialize it.
  uint64_t ScanAssembly() {
    uint64_t bytes = 0;
    BENCH_OK(composites->ForEachComponent(root, [&](Oid oid) -> Status {
      KIMDB_ASSIGN_OR_RETURN(Object obj, env->store->Get(oid));
      bytes += obj.Get(schema.payload).as_string().size();
      return Status::OK();
    }));
    return bytes;
  }
};

void ClusteringBench(benchmark::State& state, bool clustered) {
  E8Fixture f(static_cast<size_t>(state.range(0)),
              static_cast<size_t>(state.range(1)), clustered);
  uint64_t misses_before = 0;
  for (auto _ : state) {
    f.env->bp->ResetStats();
    uint64_t bytes = f.ScanAssembly();
    benchmark::DoNotOptimize(bytes);
    misses_before = f.env->bp->stats().misses;
  }
  state.SetLabel(clustered ? "clustered" : "scattered");
  state.counters["components"] = static_cast<double>(f.components);
  state.counters["misses_per_scan"] = static_cast<double>(misses_before);
}

void BM_CompositeScan_Clustered(benchmark::State& state) {
  ClusteringBench(state, true);
}

void BM_CompositeScan_Scattered(benchmark::State& state) {
  ClusteringBench(state, false);
}

// fanout, depth: {3,4} ~ 121 parts; {4,5} ~ 1365 parts.
BENCHMARK(BM_CompositeScan_Clustered)
    ->Args({3, 4})->Args({4, 5})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CompositeScan_Scattered)
    ->Args({3, 4})->Args({4, 5})->Unit(benchmark::kMicrosecond);

// Extent scan of the part class through the same small pool: the scan
// hands upcoming pages to the pool's background prefetch worker, so the
// fraction of the scan's physical reads the worker won (overlapped with
// record processing) shows up as bufferpool.readahead_* counts versus
// blocking demand misses.
void BM_ExtentScan_ReadAhead(benchmark::State& state) {
  E8Fixture f(static_cast<size_t>(state.range(0)),
              static_cast<size_t>(state.range(1)), /*clustered=*/true);
  uint64_t scanned = 0;
  BufferPoolStats last{};
  for (auto _ : state) {
    f.env->bp->DrainReadAhead();  // settle async staging between scans
    f.env->bp->ResetStats();
    scanned = 0;
    BENCH_OK(f.env->store->ForEachInClass(
        f.schema.part, [&](const Object&) -> Status {
          ++scanned;
          return Status::OK();
        }));
    f.env->bp->DrainReadAhead();
    last = f.env->bp->stats();
  }
  state.counters["components"] = static_cast<double>(f.components);
  state.counters["objects_per_scan"] = static_cast<double>(scanned);
  state.counters["ra_issued_per_scan"] =
      static_cast<double>(last.readahead_issued);
  state.counters["ra_hits_per_scan"] =
      static_cast<double>(last.readahead_hits);
  state.counters["misses_per_scan"] = static_cast<double>(last.misses);
}

BENCHMARK(BM_ExtentScan_ReadAhead)
    ->Args({3, 4})->Args({4, 5})->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace kimdb

BENCHMARK_MAIN();

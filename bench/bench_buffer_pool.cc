// Buffer-pool fetch throughput under concurrency.
//
// The sharded pool exists so that concurrent fetchers (scans and
// committers on the server's worker pool) stop serializing on one global
// mutex.
// This benchmark measures the raw FetchPage/Unpin path at 1/2/4/8 threads
// in two regimes -- hit-heavy (working set fits the pool: the pure
// lock-acquire + O(1) unpin cost) and miss-heavy (working set 8x the
// pool: eviction, write-back-free miss reads) -- each against both the
// sharded default and a single-shard pool, which is exactly the old
// global-lock design. On a multi-core host the 4-thread hit-heavy sharded
// run should be >= 2x the single-shard baseline; on a single core the
// shard win reduces to the absence of lock-convoy stalls.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workloads/bench_env.h"

namespace kimdb {
namespace bench {
namespace {

struct PoolFixture {
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> bp;
  std::vector<PageId> pages;

  void Build(size_t pool_frames, size_t n_pages, size_t n_shards) {
    disk = DiskManager::OpenInMemory();
    pages.clear();
    {
      BufferPool writer(disk.get(), 64);
      for (size_t i = 0; i < n_pages; ++i) {
        PageId pid;
        FrameRef ref;
        BENCH_ASSIGN(data, writer.NewPage(&pid, &ref));
        std::memset(data, static_cast<int>(i % 251), kPageSize);
        writer.Unpin(ref, /*dirty=*/true);
        pages.push_back(pid);
      }
      BENCH_OK(writer.FlushAll());
    }
    bp = std::make_unique<BufferPool>(disk.get(), pool_frames, n_shards);
  }

  void Teardown() {
    bp.reset();
    disk.reset();
    pages.clear();
  }
};

PoolFixture g_fix;  // shared across the benchmark's threads

// Per-thread fetch loop. Each thread walks the page list with a
// thread-specific co-prime stride so threads collide on pages (shard and
// frame contention) without marching in lockstep.
void FetchLoop(benchmark::State& state, size_t pool_frames, size_t n_pages,
               size_t n_shards) {
  if (state.thread_index() == 0) {
    g_fix.Build(pool_frames, n_pages, n_shards);
  }
  const size_t stride = 2 * static_cast<size_t>(state.thread_index()) + 3;
  size_t pos = static_cast<size_t>(state.thread_index()) * 17;
  uint64_t checksum = 0;
  for (auto _ : state) {
    PageId pid = g_fix.pages[pos % g_fix.pages.size()];
    pos += stride;
    FrameRef ref;
    auto d = g_fix.bp->FetchPage(pid, &ref);
    if (!d.ok()) {
      state.SkipWithError(d.status().ToString().c_str());
      break;
    }
    checksum += static_cast<unsigned char>((*d)[64]);
    g_fix.bp->Unpin(ref, false);
  }
  benchmark::DoNotOptimize(checksum);
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    BufferPoolStats s = g_fix.bp->stats();
    uint64_t fetches = s.hits + s.misses;
    state.counters["shards"] = static_cast<double>(g_fix.bp->shard_count());
    state.counters["hit_rate"] =
        fetches == 0 ? 0.0
                     : static_cast<double>(s.hits) /
                           static_cast<double>(fetches);
    state.counters["lock_waits"] = static_cast<double>(s.shard_lock_waits);
    g_fix.Teardown();
  }
}

// Hit-heavy: 512-page working set inside a 1024-frame pool. After warmup
// every fetch is a hit; the measured cost is shard lock + table lookup +
// O(1) unpin.
constexpr size_t kHitPool = 1024;
constexpr size_t kHitPages = 512;
// Miss-heavy: the same working set over a pool an 8th of its size, so
// most fetches evict and read.
constexpr size_t kMissPool = 64;
constexpr size_t kMissPages = 512;

void BM_Fetch_HitHeavy_Sharded(benchmark::State& state) {
  FetchLoop(state, kHitPool, kHitPages, /*n_shards=*/0);
}
void BM_Fetch_HitHeavy_SingleLock(benchmark::State& state) {
  FetchLoop(state, kHitPool, kHitPages, /*n_shards=*/1);
}
void BM_Fetch_MissHeavy_Sharded(benchmark::State& state) {
  FetchLoop(state, kMissPool, kMissPages, /*n_shards=*/0);
}
void BM_Fetch_MissHeavy_SingleLock(benchmark::State& state) {
  FetchLoop(state, kMissPool, kMissPages, /*n_shards=*/1);
}

BENCHMARK(BM_Fetch_HitHeavy_Sharded)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_Fetch_HitHeavy_SingleLock)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_Fetch_MissHeavy_Sharded)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();
BENCHMARK(BM_Fetch_MissHeavy_SingleLock)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// Readahead on/off over a cold sequential sweep: hand the next window of
// the page list to the background prefetch worker before fetching it
// (what the extent-scan operators do) versus pure demand fetching. How
// much of the window the worker manages to stage before the demand fetch
// arrives shows up in the ra_hits vs demand_misses counters.
void SweepLoop(benchmark::State& state, bool readahead) {
  g_fix.Build(kMissPool, kMissPages, /*n_shards=*/0);
  const size_t window = g_fix.bp->readahead_window();
  for (auto _ : state) {
    size_t ra_pos = 0;
    for (size_t i = 0; i < g_fix.pages.size(); ++i) {
      if (readahead && i >= ra_pos) {
        size_t end = std::min(g_fix.pages.size(), i + window);
        g_fix.bp->ReadAhead(std::span<const PageId>(
            g_fix.pages.data() + i, end - i));
        ra_pos = end;
      }
      FrameRef ref;
      auto d = g_fix.bp->FetchPage(g_fix.pages[i], &ref);
      if (!d.ok()) {
        state.SkipWithError(d.status().ToString().c_str());
        return;
      }
      g_fix.bp->Unpin(ref, false);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g_fix.pages.size()));
  g_fix.bp->DrainReadAhead();  // settle async staging before reading stats
  BufferPoolStats s = g_fix.bp->stats();
  state.counters["ra_issued"] = static_cast<double>(s.readahead_issued);
  state.counters["ra_hits"] = static_cast<double>(s.readahead_hits);
  state.counters["demand_misses"] = static_cast<double>(s.misses);
  g_fix.Teardown();
}

void BM_SequentialSweep_Demand(benchmark::State& state) {
  SweepLoop(state, /*readahead=*/false);
}
void BM_SequentialSweep_ReadAhead(benchmark::State& state) {
  SweepLoop(state, /*readahead=*/true);
}

BENCHMARK(BM_SequentialSweep_Demand)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SequentialSweep_ReadAhead)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace kimdb

BENCHMARK_MAIN();

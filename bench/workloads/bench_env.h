#ifndef KIMDB_BENCH_WORKLOADS_BENCH_ENV_H_
#define KIMDB_BENCH_WORKLOADS_BENCH_ENV_H_

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "object/object_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace kimdb {
namespace bench {

/// One in-memory engine instance for a benchmark: disk, buffer pool,
/// catalog, object store. Every benchmark binary builds its workload on
/// top of this so results reflect the measured mechanism, not setup noise.
struct Env {
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> bp;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<ObjectStore> store;

  /// KIMDB_OBJECT_CACHE_BYTES overrides the object-cache budget of every
  /// benchmark that keeps the default, so a budget can be swept without
  /// recompiling; callers that pass an explicit `object_cache_bytes` (E4's
  /// cache-off runs, E8) still win.
  static size_t CacheBytesFromEnv(size_t fallback) {
    const char* env = std::getenv("KIMDB_OBJECT_CACHE_BYTES");
    if (env == nullptr || *env == '\0') return fallback;
    char* end = nullptr;
    unsigned long long bytes = std::strtoull(env, &end, 10);
    return (end != nullptr && *end == '\0') ? static_cast<size_t>(bytes)
                                            : fallback;
  }

  static std::unique_ptr<Env> Create(
      size_t pool_pages = 8192,
      size_t object_cache_bytes = ObjectStore::kDefaultCacheBytes) {
    if (object_cache_bytes == ObjectStore::kDefaultCacheBytes) {
      object_cache_bytes = CacheBytesFromEnv(object_cache_bytes);
    }
    auto env = std::make_unique<Env>();
    env->disk = DiskManager::OpenInMemory();
    env->bp = std::make_unique<BufferPool>(env->disk.get(), pool_pages);
    env->catalog = std::make_unique<Catalog>();
    auto store = ObjectStore::Open(env->bp.get(), env->catalog.get(),
                                   /*wal=*/nullptr,
                                   /*attach_to_catalog=*/true,
                                   object_cache_bytes);
    if (!store.ok()) {
      std::fprintf(stderr, "Env::Create failed: %s\n",
                   store.status().ToString().c_str());
      std::abort();
    }
    env->store = std::move(*store);
    return env;
  }
};

/// Aborts the benchmark binary on error (setup code only).
#define BENCH_OK(expr)                                             \
  do {                                                             \
    ::kimdb::Status _st = (expr);                                  \
    if (!_st.ok()) {                                               \
      std::fprintf(stderr, "BENCH_OK failed at %s:%d: %s\n",       \
                   __FILE__, __LINE__, _st.ToString().c_str());    \
      std::abort();                                                \
    }                                                              \
  } while (0)

#define BENCH_ASSIGN(var, expr)                                    \
  auto var##_r = (expr);                                           \
  if (!var##_r.ok()) {                                             \
    std::fprintf(stderr, "BENCH_ASSIGN failed at %s:%d: %s\n",     \
                 __FILE__, __LINE__,                               \
                 var##_r.status().ToString().c_str());             \
    std::abort();                                                  \
  }                                                                \
  auto var = std::move(*var##_r);

}  // namespace bench
}  // namespace kimdb

#endif  // KIMDB_BENCH_WORKLOADS_BENCH_ENV_H_

// Multi-threaded correctness: serializability-style invariants under
// concurrent transactions with deadlock-retry, exercising the lock
// manager, the transaction manager's undo, and the per-class write latches
// together.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "storage/disk_manager.h"
#include "txn/transaction.h"
#include "util/random.h"

// TSan serializes synchronization so heavily that deadlock-retry storms
// take minutes instead of milliseconds; the sanitizer needs the code paths
// interleaved, not high iteration counts, so scale the workloads down.
#if defined(__SANITIZE_THREAD__)
#define KIMDB_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KIMDB_TSAN 1
#endif
#endif
#ifndef KIMDB_TSAN
#define KIMDB_TSAN 0
#endif

namespace kimdb {
namespace {

constexpr int kIterScale = KIMDB_TSAN ? 10 : 1;

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest()
      : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 1024) {
    account_ = *cat_.CreateClass("Account", {},
                                 {{"Balance", Domain::Int()}});
    balance_ = (*cat_.ResolveAttr(account_, "Balance"))->id;
    auto store = ObjectStore::Open(&bp_, &cat_, nullptr);
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
    txns_ = std::make_unique<TxnManager>(store_.get(), &locks_);
  }

  std::vector<Oid> MakeAccounts(int n, int64_t initial) {
    std::vector<Oid> out;
    for (int i = 0; i < n; ++i) {
      Object obj;
      obj.Set(balance_, Value::Int(initial));
      auto oid = store_->Insert(0, account_, std::move(obj));
      EXPECT_TRUE(oid.ok());
      out.push_back(*oid);
    }
    return out;
  }

  int64_t TotalBalance() {
    int64_t total = 0;
    EXPECT_TRUE(store_->ForEachInClass(account_, [&](const Object& obj) {
                        total += obj.Get(balance_).as_int();
                        return Status::OK();
                      }).ok());
    return total;
  }

  // Transfers `amount` between two random accounts inside a transaction;
  // retried on deadlock. Returns true on commit.
  bool Transfer(Random& rng, const std::vector<Oid>& accounts) {
    Oid from = accounts[rng.Uniform(accounts.size())];
    Oid to = accounts[rng.Uniform(accounts.size())];
    if (from == to) return false;
    auto t = txns_->Begin();
    if (!t.ok()) return false;
    auto run = [&]() -> Status {
      KIMDB_ASSIGN_OR_RETURN(Object a, txns_->Get(*t, from));
      KIMDB_ASSIGN_OR_RETURN(Object b, txns_->Get(*t, to));
      int64_t amount = rng.UniformRange(1, 10);
      a.Set(balance_, Value::Int(a.Get(balance_).as_int() - amount));
      b.Set(balance_, Value::Int(b.Get(balance_).as_int() + amount));
      KIMDB_RETURN_IF_ERROR(txns_->Update(*t, a));
      KIMDB_RETURN_IF_ERROR(txns_->Update(*t, b));
      return Status::OK();
    };
    Status st = run();
    if (st.ok() && txns_->Commit(*t).ok()) return true;
    (void)txns_->Abort(*t);
    return false;
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
  Catalog cat_;
  std::unique_ptr<ObjectStore> store_;
  LockManager locks_;
  std::unique_ptr<TxnManager> txns_;
  ClassId account_;
  AttrId balance_;
};

TEST_F(ConcurrencyTest, TransfersPreserveTotalBalance) {
  constexpr int kAccounts = 32;
  constexpr int64_t kInitial = 1000;
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 200 / kIterScale;
  std::vector<Oid> accounts = MakeAccounts(kAccounts, kInitial);

  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Random rng(1000 + static_cast<uint64_t>(i));
      int done = 0;
      while (done < kTransfersPerThread) {
        if (Transfer(rng, accounts)) {
          ++done;
          ++committed;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(committed.load(), kThreads * kTransfersPerThread);
  // Money is conserved across every interleaving.
  EXPECT_EQ(TotalBalance(), kAccounts * kInitial);
}

TEST_F(ConcurrencyTest, AbortingWritersNeverLeakPartialState) {
  constexpr int kAccounts = 8;
  constexpr int64_t kInitial = 100;
  std::vector<Oid> accounts = MakeAccounts(kAccounts, kInitial);

  // Writers mutate two accounts then always abort; a reader thread
  // intermittently sums balances transactionally.
  std::atomic<bool> stop{false};
  std::atomic<int> bad_sums{0};
  std::thread reader([&] {
    Random rng(7);
    while (!stop.load()) {
      auto t = txns_->Begin();
      if (!t.ok()) continue;
      // Class-level S lock: a consistent snapshot of the extent.
      if (!txns_->LockScan(*t, account_, false).ok()) {
        (void)txns_->Abort(*t);
        continue;
      }
      int64_t total = 0;
      Status st = store_->ForEachInClass(account_, [&](const Object& obj) {
        total += obj.Get(balance_).as_int();
        return Status::OK();
      });
      if (st.ok() && total != kAccounts * kInitial) ++bad_sums;
      (void)txns_->Commit(*t);
    }
  });

  std::vector<std::thread> writers;
  for (int i = 0; i < 3; ++i) {
    writers.emplace_back([&, i] {
      Random rng(100 + static_cast<uint64_t>(i));
      for (int j = 0; j < 150 / kIterScale; ++j) {
        auto t = txns_->Begin();
        if (!t.ok()) continue;
        Oid a = accounts[rng.Uniform(accounts.size())];
        auto obj = txns_->Get(*t, a);
        if (obj.ok()) {
          obj->Set(balance_, Value::Int(obj->Get(balance_).as_int() + 50));
          (void)txns_->Update(*t, *obj);
        }
        // Always abort: the +50 must never become visible.
        (void)txns_->Abort(*t);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop = true;
  reader.join();

  EXPECT_EQ(bad_sums.load(), 0);
  EXPECT_EQ(TotalBalance(), kAccounts * kInitial);
}

TEST_F(ConcurrencyTest, HighContentionSingleObjectCounter) {
  std::vector<Oid> accounts = MakeAccounts(1, 0);
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 100 / kIterScale;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      int done = 0;
      while (done < kIncrementsPerThread) {
        auto t = txns_->Begin();
        if (!t.ok()) continue;
        auto obj = txns_->Get(*t, accounts[0]);
        if (!obj.ok()) {
          (void)txns_->Abort(*t);
          continue;
        }
        obj->Set(balance_, Value::Int(obj->Get(balance_).as_int() + 1));
        if (txns_->Update(*t, *obj).ok() && txns_->Commit(*t).ok()) {
          ++done;
        } else {
          (void)txns_->Abort(*t);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Lost updates are impossible under S->X upgrade with deadlock retry.
  EXPECT_EQ(TotalBalance(), kThreads * kIncrementsPerThread);
}

// --- ObjectStore read-path / object-cache stress --------------------------
//
// N reader threads doing Get + manual path traversal (Get the object, follow
// its Ref attribute, Get the child) race M writer threads doing
// Update/Delete/Insert against a deliberately tiny cache so eviction,
// invalidation and refill all churn. Invariants:
//
//  * monotonic versions: each shared slot is owned by exactly one writer
//    that bumps its Version attribute strictly upward, so a reader
//    observing a decrease has read a stale (use-after-invalidate) image;
//  * torn-read check: Version and Shadow are always written equal, so a
//    reader seeing them differ has caught a half-applied update;
//  * post-commit visibility: once writers join, every slot's stored
//    Version must equal the writer's final value (no stale entry survives
//    the last invalidation).
//
// Runs twice: small cache (entries evict and refill constantly) and cache
// disabled (capacity 0), which must behave identically.
class ObjectCacheStressTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ObjectCacheStressTest, ReadersNeverSeeStaleOrTornImages) {
  const size_t cache_bytes = GetParam();
  auto disk = DiskManager::OpenInMemory();
  BufferPool bp(disk.get(), 1024);
  Catalog cat;
  ClassId node = *cat.CreateClass(
      "Node", {},
      {{"Version", Domain::Int()},
       {"Shadow", Domain::Int()},
       {"Next", Domain::Ref(kRootClassId)}});
  AttrId version = (*cat.ResolveAttr(node, "Version"))->id;
  AttrId shadow = (*cat.ResolveAttr(node, "Shadow"))->id;
  AttrId next = (*cat.ResolveAttr(node, "Next"))->id;
  auto store_r = ObjectStore::Open(&bp, &cat, nullptr,
                                   /*attach_to_catalog=*/true, cache_bytes);
  ASSERT_TRUE(store_r.ok());
  ObjectStore& store = **store_r;

  constexpr int kWriters = 2;
  constexpr int kSlotsPerWriter = 4;
  constexpr int kSlots = kWriters * kSlotsPerWriter;
  constexpr int kReaders = 4;
  constexpr int kWritesPerSlot = 300 / kIterScale;

  // Shared slots, each pointing at the next (ring) for path traversal.
  std::vector<Oid> slots;
  for (int i = 0; i < kSlots; ++i) {
    Object obj;
    obj.Set(version, Value::Int(0));
    obj.Set(shadow, Value::Int(0));
    auto oid = store.Insert(0, node, std::move(obj));
    ASSERT_TRUE(oid.ok());
    slots.push_back(*oid);
  }
  for (int i = 0; i < kSlots; ++i) {
    ASSERT_TRUE(store
                    .SetAttr(0, slots[i], "Next",
                             Value::Ref(slots[(i + 1) % kSlots]))
                    .ok());
  }

  std::atomic<bool> stop{false};
  // Writers start only after every reader has warmed the cache, so the
  // coverage checks at the end hold by construction, not by timing.
  std::atomic<int> readers_warm{0};
  std::atomic<int> stale_reads{0};
  std::atomic<int> torn_reads{0};
  std::atomic<int> hard_errors{0};
  std::vector<int64_t> final_version(kSlots, 0);

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (readers_warm.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      Random rng(500 + static_cast<uint64_t>(w));
      // Private churn object: deleted and re-inserted to exercise
      // Delete/Insert invalidation without cross-thread OID handoff.
      Oid churn = kNilOid;
      for (int v = 1; v <= kWritesPerSlot; ++v) {
        for (int s = 0; s < kSlotsPerWriter; ++s) {
          int slot = w * kSlotsPerWriter + s;
          auto obj = store.GetRaw(slots[slot]);
          if (!obj.ok()) {
            ++hard_errors;
            continue;
          }
          obj->Set(version, Value::Int(v));
          obj->Set(shadow, Value::Int(v));
          if (!store.Update(0, *obj).ok()) ++hard_errors;
          final_version[slot] = v;
        }
        if (!churn.is_nil() && rng.Uniform(2) == 0) {
          if (!store.Delete(0, churn).ok()) ++hard_errors;
          churn = kNilOid;
        }
        if (churn.is_nil()) {
          Object obj;
          obj.Set(version, Value::Int(v));
          obj.Set(shadow, Value::Int(v));
          auto oid = store.Insert(0, node, std::move(obj));
          if (oid.ok()) {
            churn = *oid;
          } else {
            ++hard_errors;
          }
        }
      }
      if (!churn.is_nil()) (void)store.Delete(0, churn);
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Random rng(900 + static_cast<uint64_t>(r));
      std::vector<int64_t> last_seen(kSlots, 0);
      auto check = [&](const Object& obj) {
        int64_t v = obj.Get(version).as_int();
        int64_t sh = obj.Get(shadow).as_int();
        if (v != sh) ++torn_reads;
        // Map the OID back to its slot for the monotonicity ledger.
        for (int i = 0; i < kSlots; ++i) {
          if (slots[i] == obj.oid()) {
            if (v < last_seen[i]) ++stale_reads;
            last_seen[i] = v;
            break;
          }
        }
      };
      // Read every slot twice before the writers start: the first read
      // fills the cache, the second hits it, and each slot is resident
      // when its first update invalidates it.
      for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < kSlots; ++i) {
          auto obj = store.Get(slots[i]);
          if (obj.ok()) {
            check(*obj);
          } else {
            ++hard_errors;
          }
        }
      }
      readers_warm.fetch_add(1, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        int slot = static_cast<int>(rng.Uniform(kSlots));
        auto obj = store.Get(slots[slot]);
        if (!obj.ok()) {
          ++hard_errors;  // shared slots are never deleted
          continue;
        }
        check(*obj);
        // Path traversal: follow the Next ref like EvalPath does, via the
        // zero-copy read -- races the shared-image handout against
        // concurrent invalidation and eviction.
        const Value& ref = obj->Get(next);
        if (ref.kind() == Value::Kind::kRef && !ref.as_ref().is_nil()) {
          auto child = store.GetShared(ref.as_ref());
          if (child.ok()) check(**child);
        }
      }
    });
  }

  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(stale_reads.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(hard_errors.load(), 0);
  // Post-commit visibility: the final committed image is what Get serves.
  for (int i = 0; i < kSlots; ++i) {
    auto obj = store.Get(slots[i]);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->Get(version).as_int(), final_version[i]) << "slot " << i;
    EXPECT_EQ(obj->Get(shadow).as_int(), final_version[i]) << "slot " << i;
  }
  if (cache_bytes > 0) {
    // The workload must actually have exercised the cache.
    ObjectCacheStats cs = store.object_cache().stats();
    EXPECT_GT(cs.hits, 0u);
    EXPECT_GT(cs.invalidations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(CacheModes, ObjectCacheStressTest,
                         ::testing::Values(size_t{16 * 1024}, size_t{0}));

}  // namespace
}  // namespace kimdb

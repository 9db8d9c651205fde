// MVCC snapshot-read protocol (DESIGN.md §13): repeatable reads under
// concurrent update/delete, first-committer-wins write-write conflicts,
// watermark-driven version pruning vs long-lived snapshots, commit-clock
// recovery from the WAL, and the zero-lock guarantee of the snapshot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "exec/exec_context.h"
#include "object/recovery.h"
#include "query/query_engine.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace kimdb {
namespace {

class MvccSnapshotTest : public ::testing::Test {
 protected:
  MvccSnapshotTest() : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 256) {
    part_ = *cat_.CreateClass("Part", {}, {{"Name", Domain::String()}});
    auto store = ObjectStore::Open(&bp_, &cat_, nullptr);
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
    txns_ = std::make_unique<TxnManager>(store_.get(), &locks_);
    name_ = (*cat_.ResolveAttr(part_, "Name"))->id;
  }

  Object Named(const std::string& n) {
    Object o;
    o.Set(name_, Value::Str(n));
    return o;
  }

  // Insert-and-commit helper; returns the new OID.
  Oid Seed(const std::string& n) {
    auto t = txns_->Begin();
    EXPECT_TRUE(t.ok());
    auto oid = txns_->Insert(*t, part_, Named(n));
    EXPECT_TRUE(oid.ok());
    EXPECT_TRUE(txns_->Commit(*t).ok());
    return *oid;
  }

  void CommitSet(Oid oid, const std::string& n) {
    auto t = txns_->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(txns_->SetAttr(*t, oid, "Name", Value::Str(n)).ok());
    ASSERT_TRUE(txns_->Commit(*t).ok());
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
  Catalog cat_;
  std::unique_ptr<ObjectStore> store_;
  LockManager locks_;
  std::unique_ptr<TxnManager> txns_;
  ClassId part_;
  AttrId name_;
};

TEST_F(MvccSnapshotTest, RepeatableReadUnderConcurrentUpdate) {
  Oid oid = Seed("v1");
  auto reader = txns_->Begin();
  ASSERT_TRUE(reader.ok());
  // First read pins the snapshot.
  auto r1 = txns_->Get(*reader, oid);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->Get(name_).as_string(), "v1");

  CommitSet(oid, "v2");

  // The reader's world does not move; a fresh transaction sees the commit.
  auto r2 = txns_->Get(*reader, oid);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->Get(name_).as_string(), "v1");
  ASSERT_TRUE(txns_->Commit(*reader).ok());

  auto fresh = txns_->Begin();
  ASSERT_TRUE(fresh.ok());
  auto r3 = txns_->Get(*fresh, oid);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->Get(name_).as_string(), "v2");
  ASSERT_TRUE(txns_->Commit(*fresh).ok());
}

TEST_F(MvccSnapshotTest, RepeatableReadUnderConcurrentDelete) {
  Oid oid = Seed("doomed");
  auto reader = txns_->Begin();
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(txns_->Get(*reader, oid).ok());  // pin

  auto deleter = txns_->Begin();
  ASSERT_TRUE(deleter.ok());
  ASSERT_TRUE(txns_->Delete(*deleter, oid).ok());
  ASSERT_TRUE(txns_->Commit(*deleter).ok());
  EXPECT_FALSE(store_->Exists(oid));

  // The pinned snapshot still serves the deleted object's last image.
  auto again = txns_->Get(*reader, oid);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->Get(name_).as_string(), "doomed");
  ASSERT_TRUE(txns_->Commit(*reader).ok());

  auto fresh = txns_->Begin();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(txns_->Get(*fresh, oid).status().IsNotFound());
  ASSERT_TRUE(txns_->Commit(*fresh).ok());
}

TEST_F(MvccSnapshotTest, WriteWriteConflictAbortsSecondWriter) {
  Oid oid = Seed("base");
  auto loser = txns_->Begin();
  ASSERT_TRUE(loser.ok());
  ASSERT_TRUE(txns_->Get(*loser, oid).ok());  // pins a pre-update snapshot

  CommitSet(oid, "winner");

  uint64_t conflicts_before = txns_->mvcc()->stats().write_conflicts;
  Status st = txns_->SetAttr(*loser, oid, "Name", Value::Str("loser"));
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(txns_->mvcc()->stats().write_conflicts, conflicts_before + 1);
  ASSERT_TRUE(txns_->Abort(*loser).ok());

  // First-committer-wins: the winner's value survives.
  EXPECT_EQ(store_->Get(oid)->Get(name_).as_string(), "winner");
}

TEST_F(MvccSnapshotTest, ReadYourOwnWrites) {
  Oid committed = Seed("old");
  auto t = txns_->Begin();
  ASSERT_TRUE(t.ok());
  auto mine = txns_->Insert(*t, part_, Named("mine"));
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(txns_->SetAttr(*t, committed, "Name", Value::Str("new")).ok());

  // Own uncommitted writes win over the snapshot...
  EXPECT_EQ(txns_->Get(*t, *mine)->Get(name_).as_string(), "mine");
  EXPECT_EQ(txns_->Get(*t, committed)->Get(name_).as_string(), "new");
  // ...and an own delete reads as gone.
  ASSERT_TRUE(txns_->Delete(*t, *mine).ok());
  EXPECT_TRUE(txns_->Get(*t, *mine).status().IsNotFound());

  // Another transaction cannot see any of it.
  auto other = txns_->Begin();
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(txns_->Get(*other, *mine).status().IsNotFound());
  EXPECT_EQ(txns_->Get(*other, committed)->Get(name_).as_string(), "old");
  ASSERT_TRUE(txns_->Commit(*other).ok());
  ASSERT_TRUE(txns_->Commit(*t).ok());
}

// An aborted writer's rollback rewrites (and may move) heap records under
// scans that are already running; they resolve what they copied, and find
// moved records, through the chain. It therefore outlives every snapshot
// live at the abort and goes with the last of them.
TEST_F(MvccSnapshotTest, AbortedWriterChainOutlivesOlderSnapshots) {
  Oid oid = Seed("v1");
  Snapshot snap = txns_->AcquireSnapshot();
  auto w = txns_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(txns_->SetAttr(*w, oid, "Name", Value::Str("dirty")).ok());
  ASSERT_TRUE(txns_->Abort(*w).ok());
  EXPECT_EQ(txns_->mvcc()->stats().versions_chains, 1u);
  std::shared_ptr<const Object> image;
  ASSERT_EQ(txns_->mvcc()->Resolve(oid, snap.read_ts(), &image),
            MvccLookup::kImage);
  EXPECT_EQ(image->Get(name_).as_string(), "v1");
  snap.Release();
  EXPECT_EQ(txns_->mvcc()->stats().versions_chains, 0u);

  // With no snapshot live at the abort, nothing is kept.
  auto w2 = txns_->Begin();
  ASSERT_TRUE(w2.ok());
  ASSERT_TRUE(txns_->SetAttr(*w2, oid, "Name", Value::Str("dirty")).ok());
  ASSERT_TRUE(txns_->Abort(*w2).ok());
  EXPECT_EQ(txns_->mvcc()->stats().versions_chains, 0u);
}

// Only snapshots acquired before the abort keep the aborted chain: one
// acquired after it reads the rolled-back heap, so while it stays live the
// chain still goes once the older snapshot is released.
TEST_F(MvccSnapshotTest, SnapshotAfterAbortDoesNotHoldAbortedChain) {
  Oid oid = Seed("v1");
  Snapshot before = txns_->AcquireSnapshot();
  auto w = txns_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(txns_->SetAttr(*w, oid, "Name", Value::Str("dirty")).ok());
  ASSERT_TRUE(txns_->Abort(*w).ok());
  Snapshot after = txns_->AcquireSnapshot();
  EXPECT_EQ(after.read_ts(), before.read_ts());  // no commit in between
  EXPECT_EQ(txns_->mvcc()->stats().versions_chains, 1u);
  before.Release();
  EXPECT_EQ(txns_->mvcc()->stats().versions_chains, 0u);
  EXPECT_FALSE(txns_->mvcc()->MayHaveVersions(oid.class_id()));
}

TEST_F(MvccSnapshotTest, LongLivedSnapshotBlocksPruningUntilRelease) {
  Oid oid = Seed("epoch0");
  Snapshot snap = txns_->AcquireSnapshot();

  for (int i = 1; i <= 5; ++i) {
    CommitSet(oid, "epoch" + std::to_string(i));
  }
  MvccStats mid = txns_->mvcc()->stats();
  EXPECT_GE(mid.versions_chains, 1u);
  EXPECT_GE(mid.snapshots_live, 1u);

  // The pinned epoch stays readable however many commits pass.
  bool cache_hit = false;
  auto old_img = store_->GetSnapshot(oid, snap.read_ts(), &cache_hit);
  ASSERT_TRUE(old_img.ok()) << old_img.status().ToString();
  EXPECT_EQ(old_img->Get(name_).as_string(), "epoch0");

  // Releasing the last snapshot lets the pruner collapse the chain: the
  // heap image alone serves every possible reader again.
  snap.Release();
  MvccStats after = txns_->mvcc()->stats();
  EXPECT_EQ(after.versions_chains, 0u);
  EXPECT_EQ(after.snapshots_live, 0u);
  EXPECT_GT(after.versions_pruned, 0u);
  EXPECT_EQ(store_->Get(oid)->Get(name_).as_string(), "epoch5");
}

TEST_F(MvccSnapshotTest, SnapshotReadsTakeNoLocks) {
  Oid oid = Seed("quiet");
  auto t = txns_->Begin();
  ASSERT_TRUE(t.ok());
  uint64_t acquired_before = locks_.stats().acquired;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(txns_->Get(*t, oid).ok());
  }
  // The whole read path -- snapshot pin, version resolution, cache probe,
  // heap fallback -- never enters the lock manager.
  EXPECT_EQ(locks_.stats().acquired, acquired_before);
  ASSERT_TRUE(txns_->Commit(*t).ok());
}

TEST_F(MvccSnapshotTest, QueryScanIsRepeatableAtItsSnapshot) {
  Oid stays = Seed("stays");
  Oid dies = Seed("dies");

  // Pin a snapshot, then commit a delete and an insert behind it.
  Snapshot snap = txns_->AcquireSnapshot();
  {
    auto t = txns_->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(txns_->Delete(*t, dies).ok());
    ASSERT_TRUE(txns_->Insert(*t, part_, Named("newborn")).ok());
    ASSERT_TRUE(txns_->Commit(*t).ok());
  }

  QueryEngine qe(store_.get(), /*indexes=*/nullptr);
  Query q;
  q.target = part_;
  q.hierarchy_scope = false;

  // Scan at the pinned snapshot: the delete is invisible (ghost pass
  // resurrects the heap-removed record), the insert does not exist yet.
  exec::ExecContext pinned(store_->buffer_pool());
  pinned.set_snapshot(snap.read_ts());
  auto at_snap = qe.Execute(q, &pinned);
  ASSERT_TRUE(at_snap.ok()) << at_snap.status().ToString();
  EXPECT_EQ(at_snap->size(), 2u);
  EXPECT_NE(std::find(at_snap->begin(), at_snap->end(), dies),
            at_snap->end());

  // A current-time execution (fresh snapshot) sees the new world.
  auto now = qe.Execute(q);
  ASSERT_TRUE(now.ok()) << now.status().ToString();
  EXPECT_EQ(now->size(), 2u);
  EXPECT_EQ(std::find(now->begin(), now->end(), dies), now->end());
  (void)stays;
}

TEST_F(MvccSnapshotTest, DirectWritesCommitInstantlyAndRespectSnapshots) {
  Oid oid = Seed("sealed");

  // No snapshot live: a txn-0 (non-transactional) write is just a heap
  // mutation -- no chain is born and no timestamp is consumed.
  MvccStats quiet = txns_->mvcc()->stats();
  ASSERT_TRUE(store_->SetAttr(0, oid, "Name", Value::Str("direct0")).ok());
  MvccStats after_quiet = txns_->mvcc()->stats();
  EXPECT_EQ(after_quiet.versions_chains, quiet.versions_chains);
  EXPECT_EQ(after_quiet.commit_ts, quiet.commit_ts);

  // With a snapshot pinned, the same write becomes an instant commit: the
  // pinned epoch stays readable, a fresh read sees the new image, and the
  // chain never carries a pending entry (nothing could ever resolve it).
  Snapshot snap = txns_->AcquireSnapshot();
  ASSERT_TRUE(store_->SetAttr(0, oid, "Name", Value::Str("direct1")).ok());
  auto ins = store_->Insert(0, part_, Named("newborn"));
  ASSERT_TRUE(ins.ok());

  bool cache_hit = false;
  auto pinned = store_->GetSnapshot(oid, snap.read_ts(), &cache_hit);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->Get(name_).as_string(), "direct0");
  EXPECT_TRUE(
      store_->GetSnapshot(*ins, snap.read_ts(), &cache_hit).status().IsNotFound());

  auto fresh = txns_->Begin();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(txns_->Get(*fresh, oid)->Get(name_).as_string(), "direct1");
  EXPECT_TRUE(txns_->Get(*fresh, *ins).ok());
  ASSERT_TRUE(txns_->Commit(*fresh).ok());

  // Releasing the snapshot collapses the direct-write history too.
  snap.Release();
  EXPECT_EQ(txns_->mvcc()->stats().versions_chains, 0u);
}

// Regression for the off-clock commit protocol (DESIGN.md §14): a
// transactional committer allocates its timestamp under commit_mu but
// promotes *outside* it, so a txn-0 direct write (CommitDirect) can
// allocate and install the next timestamp before the earlier one lands.
// Two invariants must hold through that window: the publish frontier
// stays dense (the later timestamp is not visible while the earlier one
// is in flight), and the version chain stays sorted newest-first (naive
// front-insertion at promote time would make the older version shadow
// the newer one).
TEST_F(MvccSnapshotTest, DirectWriteRacingInFlightCommitterStaysOrdered) {
  Oid oid = Seed("base");
  Snapshot keep = txns_->AcquireSnapshot();  // keeps version chains alive
  MvccTable* mvcc = txns_->mvcc();

  // Freeze an in-flight committer at the widest point of the window:
  // write staged, timestamp allocated, promotion not yet run.
  constexpr uint64_t kWriterTxn = 777;
  auto base = store_->GetShared(oid);
  ASSERT_TRUE(base.ok());
  Object slow = Named("slow");
  slow.set_oid(oid);
  mvcc->StageWrite(kWriterTxn, oid, *base,
                   std::make_shared<const Object>(std::move(slow)));
  uint64_t slow_ts;
  {
    std::lock_guard<std::mutex> clk(mvcc->commit_mu());
    slow_ts = mvcc->AllocateCommitTs();
  }

  // The direct write takes slow_ts + 1 and installs instantly...
  ASSERT_TRUE(store_->SetAttr(0, oid, "Name", Value::Str("fast")).ok());
  // ...but cannot publish past the hole the in-flight committer left.
  EXPECT_LT(mvcc->visible_ts(), slow_ts);
  bool cache_hit = false;
  auto frozen = store_->GetSnapshot(oid, mvcc->visible_ts(), &cache_hit);
  ASSERT_TRUE(frozen.ok());
  EXPECT_EQ(frozen->Get(name_).as_string(), "base");

  // The committer finishes out of order; the frontier jumps over both.
  mvcc->Promote(kWriterTxn, slow_ts);
  mvcc->FinishCommit(slow_ts);
  EXPECT_GE(mvcc->visible_ts(), slow_ts + 1);

  // Chain order: the newer direct write wins at the top, the promoted
  // commit resolves exactly at its own timestamp.
  auto newest = store_->GetSnapshot(oid, slow_ts + 1, &cache_hit);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest->Get(name_).as_string(), "fast");
  auto at_slow = store_->GetSnapshot(oid, slow_ts, &cache_hit);
  ASSERT_TRUE(at_slow.ok());
  EXPECT_EQ(at_slow->Get(name_).as_string(), "slow");
  auto before = store_->GetSnapshot(oid, slow_ts - 1, &cache_hit);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->Get(name_).as_string(), "base");

  keep.Release();
  mvcc->Prune();
}

// TSan stress for the per-class write latches: one transactional writer
// per class (distinct classes never share a latch, so these mutate the
// store truly in parallel), a txn-0 direct writer on its own class
// racing the commit clock, and snapshot readers verifying repeatable
// reads across every class while the writers run.
TEST_F(MvccSnapshotTest, ConcurrentPerClassWritersWithSnapshotReaders) {
  constexpr int kClasses = 4;
  constexpr int kObjectsPerClass = 8;
  constexpr int kCommitsPerWriter = 150;
  ClassId cls[kClasses];
  AttrId attr[kClasses];
  std::vector<Oid> oids[kClasses];
  cls[0] = part_;
  attr[0] = name_;
  for (int c = 1; c < kClasses; ++c) {
    cls[c] = *cat_.CreateClass("Part" + std::to_string(c), {},
                               {{"Name", Domain::String()}});
    attr[c] = (*cat_.ResolveAttr(cls[c], "Name"))->id;
  }
  ClassId direct_cls =
      *cat_.CreateClass("DirectPart", {}, {{"Name", Domain::String()}});
  AttrId direct_attr = (*cat_.ResolveAttr(direct_cls, "Name"))->id;
  ASSERT_TRUE(store_->EnsureExtent(direct_cls).ok());
  for (int c = 0; c < kClasses; ++c) {
    for (int i = 0; i < kObjectsPerClass; ++i) {
      auto t = txns_->Begin();
      ASSERT_TRUE(t.ok());
      Object o;
      o.Set(attr[c], Value::Str("v0"));
      auto oid = txns_->Insert(*t, cls[c], std::move(o));
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE(txns_->Commit(*t).ok());
      oids[c].push_back(*oid);
    }
  }
  Object direct_seed;
  direct_seed.Set(direct_attr, Value::Str("v0"));
  auto direct_oid = store_->Insert(0, direct_cls, std::move(direct_seed));
  ASSERT_TRUE(direct_oid.ok()) << direct_oid.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> committed{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClasses; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        auto t = txns_->Begin();
        if (!t.ok()) continue;
        Oid oid = oids[c][i % kObjectsPerClass];
        if (txns_->SetAttr(*t, oid, "Name",
                           Value::Str("w" + std::to_string(i))).ok() &&
            txns_->Commit(*t).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          (void)txns_->Abort(*t);
        }
      }
    });
  }
  threads.emplace_back([&] {
    // txn-0 direct writes interleave CommitDirect with the committers'
    // off-clock promotions on the shared timestamp frontier.
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!store_->SetAttr(0, *direct_oid, "Name", Value::Str("direct"))
               .ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++i;
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Snapshot snap = txns_->AcquireSnapshot();
        for (int c = 0; c < kClasses; ++c) {
          for (const Oid& oid : oids[c]) {
            bool hit = false;
            auto r1 = store_->GetSnapshot(oid, snap.read_ts(), &hit);
            auto r2 = store_->GetSnapshot(oid, snap.read_ts(), &hit);
            if (!r1.ok() || !r2.ok() ||
                r1->Get(attr[c]).as_string() !=
                    r2->Get(attr[c]).as_string()) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        snap.Release();
      }
    });
  }
  for (int c = 0; c < kClasses; ++c) threads[c].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kClasses; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(committed.load(),
            static_cast<uint64_t>(kClasses) * kCommitsPerWriter);
  // Every committer finished: the dense publish frontier caught up to
  // the newest allocated timestamp.
  MvccStats s = txns_->mvcc()->stats();
  EXPECT_EQ(s.visible_ts, s.commit_ts);
}

// --- commit-clock recovery ---------------------------------------------------

class MvccRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string base =
        ::testing::TempDir() + "/kimdb_mvcc_rec_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    db_path_ = base + ".db";
    wal_path_ = base + ".wal";
    ::remove(db_path_.c_str());
    ::remove(wal_path_.c_str());
    cat_ = std::make_unique<Catalog>();
    part_ = *cat_->CreateClass("Part", {}, {{"Name", Domain::String()}});
    name_ = (*cat_->ResolveAttr(part_, "Name"))->id;
    Open();
  }

  void TearDown() override {
    txns_.reset();
    store_.reset();
    bp_.reset();
    disk_.reset();
    wal_.reset();
    ::remove(db_path_.c_str());
    ::remove(wal_path_.c_str());
  }

  void Open() {
    auto disk = DiskManager::OpenFile(db_path_);
    ASSERT_TRUE(disk.ok());
    disk_ = std::move(*disk);
    bp_ = std::make_unique<BufferPool>(disk_.get(), 64);
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    wal_ = std::move(*wal);
    auto store = ObjectStore::Open(bp_.get(), cat_.get(), wal_.get());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    txns_ = std::make_unique<TxnManager>(store_.get(), &locks_);
  }

  std::string db_path_, wal_path_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> bp_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Catalog> cat_;
  std::unique_ptr<ObjectStore> store_;
  LockManager locks_;
  std::unique_ptr<TxnManager> txns_;
  ClassId part_;
  AttrId name_;
};

TEST_F(MvccRecoveryTest, RecoveryRestoresCommitClock) {
  // Three stamped commits (plus a read-only commit, which must not consume
  // a timestamp in the log).
  Oid oid;
  for (int i = 0; i < 3; ++i) {
    auto t = txns_->Begin();
    ASSERT_TRUE(t.ok());
    Object o;
    o.Set(name_, Value::Str("gen" + std::to_string(i)));
    auto ins = txns_->Insert(*t, part_, std::move(o));
    ASSERT_TRUE(ins.ok());
    oid = *ins;
    ASSERT_TRUE(txns_->Commit(*t).ok());
  }
  {
    auto ro = txns_->Begin();
    ASSERT_TRUE(ro.ok());
    ASSERT_TRUE(txns_->Get(*ro, oid).ok());
    ASSERT_TRUE(txns_->Commit(*ro).ok());
  }
  const uint64_t pre_crash_ts = txns_->mvcc()->stats().visible_ts;
  ASSERT_EQ(pre_crash_ts, 3u);

  // Crash without flushing and recover over a fresh stack.
  txns_.reset();
  store_.reset();
  bp_.reset();
  disk_.reset();
  Open();
  auto stats = RecoveryManager::Recover(store_.get(), wal_.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->max_commit_ts, pre_crash_ts);
  txns_->RestoreCommitClock(stats->max_commit_ts);

  // Snapshots resume at exactly the durable frontier and new commits
  // continue the clock past it.
  EXPECT_EQ(txns_->mvcc()->stats().visible_ts, pre_crash_ts);
  auto t = txns_->Begin();
  ASSERT_TRUE(t.ok());
  auto got = txns_->Get(*t, oid);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->Get(name_).as_string(), "gen2");
  ASSERT_TRUE(txns_->SetAttr(*t, oid, "Name", Value::Str("post")).ok());
  ASSERT_TRUE(txns_->Commit(*t).ok());
  EXPECT_EQ(txns_->mvcc()->stats().visible_ts, pre_crash_ts + 1);
}

}  // namespace
}  // namespace kimdb

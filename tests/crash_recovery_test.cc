// Crash-injection durability harness (the "crash matrix").
//
// A deterministic OO1-style mixed workload (inserts, updates, deletes,
// explicit aborts; ~100 transactions) runs against the full durable stack
// (FaultInjectingDiskManager -> BufferPool -> HeapFile extents, Wal with a
// fault hook, ObjectStore, LockManager, TxnManager). A FaultInjector
// "crashes" the process at an exact I/O: the Nth WAL append (clean-fail and
// torn-write variants) or the Nth page write (buffer-pool eviction /
// allocation reaching the device). After the crash, everything volatile is
// discarded, the store is reopened over the surviving files, and
// RecoveryManager::Recover must re-establish the durability invariants:
//
//   * every acknowledged (Commit returned OK) transaction's effects are
//     present, byte-for-byte per attribute;
//   * no uncommitted or aborted transaction's effects are visible;
//   * recovery is idempotent (a second Recover changes nothing);
//   * a freshly built index agrees exactly with the extents.
//
// The golden (fault-free) run sizes the matrix; every I/O index in
// [1, golden count] is then crashed in turn. KIMDB_CRASH_MATRIX_STRIDE
// thins the matrix for slow builds (TSan CI sets it); default is 1 (every
// crash point).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/index_manager.h"
#include "object/object_store.h"
#include "object/recovery.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace kimdb {
namespace {

constexpr int kTxns = 100;
// Pad makes objects ~10x larger so the workload spans enough heap pages to
// evict against a small pool (page-flush crash points need evictions).
constexpr size_t kPadBytes = 700;
constexpr size_t kPoolFrames = 4;

// Expected committed state: OID -> Name value. Mutated only after a Commit
// is acknowledged, so it is exactly the set recovery must reproduce.
using Model = std::map<uint64_t, std::string>;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string base =
        ::testing::TempDir() + "/kimdb_crash_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    db_path_ = base + ".db";
    wal_path_ = base + ".wal";
  }

  void TearDown() override {
    CloseAll();
    ::remove(db_path_.c_str());
    ::remove(wal_path_.c_str());
  }

  // Fresh database files + fresh catalog: every matrix iteration replays
  // the identical history (ClassIds, OIDs, page layout are deterministic).
  void FreshFiles() {
    CloseAll();
    ::remove(db_path_.c_str());
    ::remove(wal_path_.c_str());
    cat_ = std::make_unique<Catalog>();
    auto part = cat_->CreateClass(
        "Part", {}, {{"Name", Domain::String()}, {"Pad", Domain::String()}});
    ASSERT_TRUE(part.ok());
    part_ = *part;
    name_ = (*cat_->ResolveAttr(part_, "Name"))->id;
    pad_ = (*cat_->ResolveAttr(part_, "Pad"))->id;
  }

  // Opens the stack; page and WAL I/O run through `fi` when non-null.
  Status OpenStack(FaultInjector* fi) {
    KIMDB_ASSIGN_OR_RETURN(real_disk_, DiskManager::OpenFile(db_path_));
    disk_ = real_disk_.get();
    if (fi != nullptr) {
      faulty_disk_ = std::make_unique<FaultInjectingDiskManager>(
          real_disk_.get(), fi);
      disk_ = faulty_disk_.get();
    }
    bp_ = std::make_unique<BufferPool>(disk_, kPoolFrames);
    KIMDB_ASSIGN_OR_RETURN(wal_, Wal::Open(wal_path_));
    wal_->set_fault_injector(fi);
    KIMDB_ASSIGN_OR_RETURN(store_,
                           ObjectStore::Open(bp_.get(), cat_.get(),
                                             wal_.get()));
    locks_ = std::make_unique<LockManager>();
    txns_ = std::make_unique<TxnManager>(store_.get(), locks_.get());
    return Status::OK();
  }

  // Crash: volatile state (buffer pool, store, txn table) dies with the
  // process; the .db/.wal files keep whatever I/O succeeded.
  void CloseAll() {
    txns_.reset();
    locks_.reset();
    store_.reset();
    bp_.reset();
    faulty_disk_.reset();
    real_disk_.reset();
    wal_.reset();
  }

  // The deterministic mixed workload. Stops at the first error (the
  // injected crash); `model` only ever reflects acknowledged commits.
  Status RunWorkload(Model* model) {
    std::vector<Oid> live;
    std::map<uint64_t, std::string> live_name;  // runtime mirror of `model`
    for (const auto& [raw, nm] : *model) {
      live.push_back(Oid(raw));
      live_name[raw] = nm;
    }
    for (int i = 1; i <= kTxns; ++i) {
      KIMDB_ASSIGN_OR_RETURN(uint64_t t, txns_->Begin());
      switch (i % 5) {
        case 0:
        case 1: {  // insert two objects
          std::vector<std::pair<uint64_t, std::string>> added;
          for (const char* suffix : {".a", ".b"}) {
            Object obj;
            std::string nm = "t" + std::to_string(i) + suffix;
            obj.Set(name_, Value::Str(nm));
            obj.Set(pad_, Value::Str(std::string(kPadBytes, 'p')));
            KIMDB_ASSIGN_OR_RETURN(Oid oid, txns_->Insert(t, part_, obj));
            added.push_back({oid.raw(), nm});
          }
          KIMDB_RETURN_IF_ERROR(txns_->Commit(t));
          for (auto& [raw, nm] : added) {
            (*model)[raw] = nm;
            live.push_back(Oid(raw));
          }
          break;
        }
        case 2: {  // update one object
          if (live.empty()) {
            KIMDB_RETURN_IF_ERROR(txns_->Commit(t));
            break;
          }
          Oid target = live[static_cast<size_t>(i * 7) % live.size()];
          std::string nm = "u" + std::to_string(i);
          KIMDB_RETURN_IF_ERROR(
              txns_->SetAttr(t, target, "Name", Value::Str(nm)));
          KIMDB_RETURN_IF_ERROR(txns_->Commit(t));
          (*model)[target.raw()] = nm;
          break;
        }
        case 3: {  // delete one object
          if (live.empty()) {
            KIMDB_RETURN_IF_ERROR(txns_->Commit(t));
            break;
          }
          size_t k = static_cast<size_t>(i * 13) % live.size();
          Oid target = live[k];
          KIMDB_RETURN_IF_ERROR(txns_->Delete(t, target));
          KIMDB_RETURN_IF_ERROR(txns_->Commit(t));
          model->erase(target.raw());
          live.erase(live.begin() + static_cast<ptrdiff_t>(k));
          break;
        }
        default: {  // insert + update, then abort: effects must vanish
          Object obj;
          obj.Set(name_, Value::Str("never" + std::to_string(i)));
          obj.Set(pad_, Value::Str(std::string(kPadBytes, 'q')));
          KIMDB_RETURN_IF_ERROR(txns_->Insert(t, part_, obj).status());
          if (!live.empty()) {
            Oid target = live[static_cast<size_t>(i * 3) % live.size()];
            KIMDB_RETURN_IF_ERROR(txns_->SetAttr(
                t, target, "Name", Value::Str("shadow" + std::to_string(i))));
          }
          KIMDB_RETURN_IF_ERROR(txns_->Abort(t));
          break;
        }
      }
    }
    return Status::OK();
  }

  // Records that outgrow their pages after a checkpoint. Four pages of
  // equal-size records are flushed and the log truncated; then every third
  // record grows to ~1 KiB, which its page cannot keep: each growth is a
  // relocation, the first one links a fresh page into the middle of the
  // chain, and the reads in between push pages through the small pool, so
  // pages reach disk in every order. Every object committed before the
  // checkpoint lives only in the heap pages.
  Status RunRelocationWorkload(Model* model) {
    std::vector<Oid> oids;
    KIMDB_ASSIGN_OR_RETURN(uint64_t t, txns_->Begin());
    Model added;
    for (int i = 0; i < 48; ++i) {
      Object obj;
      char nm[8];
      std::snprintf(nm, sizeof(nm), "p%03d", i);
      obj.Set(name_, Value::Str(nm));
      obj.Set(pad_, Value::Str(std::string(300, 'p')));
      KIMDB_ASSIGN_OR_RETURN(Oid oid, txns_->Insert(t, part_, obj));
      oids.push_back(oid);
      added[oid.raw()] = nm;
    }
    KIMDB_RETURN_IF_ERROR(txns_->Commit(t));
    model->insert(added.begin(), added.end());
    KIMDB_RETURN_IF_ERROR(bp_->FlushAll());
    KIMDB_RETURN_IF_ERROR(wal_->Truncate());
    for (size_t i = 0; i < oids.size(); i += 3) {
      KIMDB_ASSIGN_OR_RETURN(uint64_t t2, txns_->Begin());
      std::string nm = "g" + std::to_string(i);
      KIMDB_RETURN_IF_ERROR(
          txns_->SetAttr(t2, oids[i], "Name", Value::Str(nm)));
      KIMDB_RETURN_IF_ERROR(txns_->SetAttr(
          t2, oids[i], "Pad", Value::Str(std::string(900, 'g'))));
      KIMDB_RETURN_IF_ERROR(txns_->Commit(t2));
      (*model)[oids[i].raw()] = nm;
      for (size_t j = 0; j < oids.size(); j += 7) {
        KIMDB_RETURN_IF_ERROR(store_->Get(oids[j]).status());
      }
    }
    return Status::OK();
  }

  // The durability invariants, checked against the acknowledged model.
  void VerifyModel(const Model& model) {
    Model actual;
    Status st = store_->ForEachInClass(part_, [&](const Object& obj) {
      EXPECT_EQ(actual.count(obj.oid().raw()), 0u) << "duplicate OID";
      actual[obj.oid().raw()] = obj.Get(name_).as_string();
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(actual, model);

    // Index consistency: a freshly built index must agree with the extent.
    IndexManager im(store_.get());
    auto idx = im.CreateIndex(IndexKind::kSingleClass, part_, {"Name"});
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    auto info = im.GetIndex(*idx);
    ASSERT_TRUE(info.ok());
    for (const auto& [raw, nm] : model) {
      std::vector<Oid> out;
      ASSERT_TRUE(im.LookupEq(**info, Value::Str(nm), part_, false, &out)
                      .ok());
      bool found = false;
      for (Oid o : out) found = found || o.raw() == raw;
      EXPECT_TRUE(found) << "index lost oid " << raw << " (" << nm << ")";
    }
  }

  // One matrix cell: run `workload` (default RunWorkload) with a fault
  // armed at the `fire_at`th I/O of `op`, crash, reopen, recover, verify,
  // recover again, verify.
  void RunOne(FaultOp op, FaultMode mode, uint64_t fire_at,
              const std::function<Status(Model*)>& workload = {}) {
    SCOPED_TRACE("crash at " + std::to_string(static_cast<int>(op)) + "/" +
                 std::to_string(static_cast<int>(mode)) + " #" +
                 std::to_string(fire_at));
    FreshFiles();
    FaultInjector fi;
    fi.Arm(op, mode, fire_at, /*torn_seed=*/static_cast<uint32_t>(fire_at));
    Model model;
    Status st = OpenStack(&fi);
    if (st.ok()) st = workload ? workload(&model) : RunWorkload(&model);
    // Either the fault surfaced as an error (the common case) or the armed
    // point was never reached (workload completed).
    CloseAll();

    ASSERT_TRUE(OpenStack(nullptr).ok());
    auto stats = RecoveryManager::Recover(store_.get(), wal_.get());
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    VerifyModel(model);
    auto stats2 = RecoveryManager::Recover(store_.get(), wal_.get());
    ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
    VerifyModel(model);
  }

  static uint64_t MatrixStride() {
    const char* env = std::getenv("KIMDB_CRASH_MATRIX_STRIDE");
    if (env == nullptr) return 1;
    long v = std::atol(env);
    return v > 0 ? static_cast<uint64_t>(v) : 1;
  }

  std::string db_path_, wal_path_;
  std::unique_ptr<Catalog> cat_;
  std::unique_ptr<DiskManager> real_disk_;
  std::unique_ptr<FaultInjectingDiskManager> faulty_disk_;
  DiskManager* disk_ = nullptr;
  std::unique_ptr<BufferPool> bp_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<TxnManager> txns_;
  ClassId part_ = kInvalidClassId;
  AttrId name_ = 0;
  AttrId pad_ = 0;
};

// The fault-free golden run: the workload completes, the model matches,
// and both crash-point categories actually occur (the matrix is non-empty).
TEST_F(CrashRecoveryTest, GoldenRunCompletes) {
  FreshFiles();
  FaultInjector fi;  // disarmed: pure I/O counter
  ASSERT_TRUE(OpenStack(&fi).ok());
  Model model;
  Status st = RunWorkload(&model);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(model.size(), 20u);
  EXPECT_GT(fi.ops(FaultOp::kWalAppend), 100u);
  EXPECT_GT(fi.ops(FaultOp::kWalReserve), 20u) << "no reservation "
      "redemptions: every writing commit should redeem a reserved slot";
  EXPECT_GT(fi.ops(FaultOp::kPageWrite), 10u) << "no page-flush crash "
      "points: enlarge kPadBytes or shrink the pool";
  VerifyModel(model);
}

TEST_F(CrashRecoveryTest, MatrixEveryWalAppendFailStop) {
  FreshFiles();
  FaultInjector fi;
  ASSERT_TRUE(OpenStack(&fi).ok());
  Model model;
  ASSERT_TRUE(RunWorkload(&model).ok());
  const uint64_t appends = fi.ops(FaultOp::kWalAppend);
  for (uint64_t i = 1; i <= appends; i += MatrixStride()) {
    RunOne(FaultOp::kWalAppend, FaultMode::kFail, i);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CrashRecoveryTest, MatrixEveryWalAppendTorn) {
  FreshFiles();
  FaultInjector fi;
  ASSERT_TRUE(OpenStack(&fi).ok());
  Model model;
  ASSERT_TRUE(RunWorkload(&model).ok());
  const uint64_t appends = fi.ops(FaultOp::kWalAppend);
  for (uint64_t i = 1; i <= appends; i += MatrixStride()) {
    RunOne(FaultOp::kWalAppend, FaultMode::kTornWrite, i);
    if (HasFatalFailure()) return;
  }
}

// Crash in the gap between commit-slot reservation and the off-mutex
// append (DESIGN.md §14): the LSN and byte range were handed out under
// the commit clock, but nothing reached the file. The reserved slot is a
// hole at the log tail -- any later reservation that did append cannot
// fdatasync past it, so its commit is never acknowledged either -- and
// recovery's checksum scan stops at the hole, truncates the tail, and
// restores a dense commit-ts frontier equal to the newest acknowledged
// commit.
TEST_F(CrashRecoveryTest, MatrixEveryCommitReserveGap) {
  FreshFiles();
  FaultInjector fi;
  ASSERT_TRUE(OpenStack(&fi).ok());
  Model model;
  ASSERT_TRUE(RunWorkload(&model).ok());
  const uint64_t reserves = fi.ops(FaultOp::kWalReserve);
  ASSERT_GT(reserves, 0u);
  for (uint64_t i = 1; i <= reserves; i += MatrixStride()) {
    RunOne(FaultOp::kWalReserve, FaultMode::kFail, i);
    if (HasFatalFailure()) return;
  }
}

// A commit whose WAL append/sync fails after versions were promoted must
// not expose those versions: they are demoted back to pending images (the
// dense frontier consumes the timestamp but no version carries it), the
// transaction becomes abort-only (a retried Commit must not take the
// read-only branch and report a spurious success), and the abort restores
// the committed image even though the wedged log rejects its kAbort record.
TEST_F(CrashRecoveryTest, FailedCommitStaysInvisibleAndAbortOnly) {
  FreshFiles();
  FaultInjector fi;
  ASSERT_TRUE(OpenStack(&fi).ok());

  // Acknowledged baseline.
  auto t0 = txns_->Begin();
  ASSERT_TRUE(t0.ok());
  Object obj;
  obj.Set(name_, Value::Str("base"));
  obj.Set(pad_, Value::Str("x"));
  auto oid = txns_->Insert(*t0, part_, obj);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(txns_->Commit(*t0).ok());

  // The doomed writer: its commit-record redemption permanently fails.
  auto t1 = txns_->Begin();
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(txns_->SetAttr(*t1, *oid, "Name", Value::Str("doomed")).ok());
  fi.Arm(FaultOp::kWalReserve, FaultMode::kFail, 1);
  ASSERT_FALSE(txns_->Commit(*t1).ok());
  fi.Disarm();  // the device "recovers"; the log hole stays permanent

  // Retrying the commit must fail: Promote consumed the staged write set,
  // so without poisoning the retry would succeed as a read-only commit.
  EXPECT_TRUE(txns_->Commit(*t1).IsFailedPrecondition());

  // A fresh snapshot resolves to the committed image, not "doomed" -- the
  // demoted chain keeps serving "base" over the still-dirty heap.
  {
    Snapshot snap = txns_->AcquireSnapshot();
    bool cache_hit = false;
    auto img = store_->GetSharedSnapshot(*oid, snap.read_ts(), &cache_hit);
    ASSERT_TRUE(img.ok()) << img.status().ToString();
    EXPECT_EQ((*img)->Get(name_).as_string(), "base");
  }

  // The abort record cannot reach the wedged log, but the heap rollback
  // and lock release must happen regardless.
  (void)txns_->Abort(*t1);
  EXPECT_FALSE(txns_->IsActive(*t1));
  auto raw = store_->GetRaw(*oid);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->Get(name_).as_string(), "base");

  // Crash, reopen, recover: exactly the acknowledged state survives.
  CloseAll();
  ASSERT_TRUE(OpenStack(nullptr).ok());
  auto stats = RecoveryManager::Recover(store_.get(), wal_.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  Model model;
  model[oid->raw()] = "base";
  VerifyModel(model);
}

TEST_F(CrashRecoveryTest, MatrixEveryPageWriteFailStop) {
  FreshFiles();
  FaultInjector fi;
  ASSERT_TRUE(OpenStack(&fi).ok());
  Model model;
  ASSERT_TRUE(RunWorkload(&model).ok());
  const uint64_t writes = fi.ops(FaultOp::kPageWrite);
  for (uint64_t i = 1; i <= writes; i += MatrixStride()) {
    RunOne(FaultOp::kPageWrite, FaultMode::kFail, i);
    if (HasFatalFailure()) return;
  }
}

// Crash at every page write of a checkpoint followed by relocations. Two
// ways to lose the checkpoint's objects are pinned: a fresh page linked
// mid-chain must reach disk before its anchor (else the chain ends at a
// zeroed page and hides the pages behind it), and a record whose new copy
// reached disk before its old page's delete must come back once, not
// twice (the duplicate is dropped at open).
TEST_F(CrashRecoveryTest, MatrixCheckpointThenRelocationsEveryPageWrite) {
  FreshFiles();
  FaultInjector fi;  // disarmed: pure I/O counter
  Model golden;
  ASSERT_TRUE(OpenStack(&fi).ok());
  ASSERT_TRUE(RunRelocationWorkload(&golden).ok());
  EXPECT_GE(store_->heap_stats().relocations.load(), 10u);
  EXPECT_GE(store_->heap_stats().pages_linked.load(), 1u);
  const uint64_t writes = fi.ops(FaultOp::kPageWrite);
  CloseAll();
  for (uint64_t i = 1; i <= writes; i += MatrixStride()) {
    RunOne(FaultOp::kPageWrite, FaultMode::kFail, i,
           [this](Model* m) { return RunRelocationWorkload(m); });
  }
}

// A crash mid-abort (the kAbort record never makes it) must leave the
// transaction in-flight from the log's point of view and still invisible.
TEST_F(CrashRecoveryTest, CrashDuringAbortRollsBackFromLog) {
  FreshFiles();
  ASSERT_TRUE(OpenStack(nullptr).ok());
  auto t1 = txns_->Begin();
  ASSERT_TRUE(t1.ok());
  Object obj;
  obj.Set(name_, Value::Str("keep"));
  obj.Set(pad_, Value::Str("x"));
  auto kept = txns_->Insert(*t1, part_, obj);
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(txns_->Commit(*t1).ok());

  FaultInjector fi;
  wal_->set_fault_injector(&fi);
  auto t2 = txns_->Begin();
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(
      txns_->SetAttr(*t2, *kept, "Name", Value::Str("dirty")).ok());
  // Fail the very next WAL append: that is Abort's kAbort record.
  fi.Arm(FaultOp::kWalAppend, FaultMode::kFail, 1);
  Status abort_st = txns_->Abort(*t2);
  EXPECT_FALSE(abort_st.ok());
  CloseAll();

  ASSERT_TRUE(OpenStack(nullptr).ok());
  auto stats = RecoveryManager::Recover(store_.get(), wal_.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->aborted_txns, 0u);  // kAbort never reached the log
  EXPECT_GE(stats->undone, 1u);
  auto got = store_->Get(*kept);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->Get(name_).as_string(), "keep");
}

// A crash in the window between commit-timestamp allocation and the
// durable kCommit append: Commit has already bumped the in-memory MVCC
// clock (AllocateCommitTs runs before the WAL write of the stamped
// record), then the append fails. The acknowledged history holds only the
// first transaction, so recovery must report its timestamp as the commit
// frontier -- the speculatively allocated timestamp must not survive the
// crash -- and a post-recovery commit continues the clock densely from
// the durable frontier.
TEST_F(CrashRecoveryTest, CrashBetweenCommitTsStampAndWalAppend) {
  FreshFiles();
  ASSERT_TRUE(OpenStack(nullptr).ok());
  auto t1 = txns_->Begin();
  ASSERT_TRUE(t1.ok());
  Object obj;
  obj.Set(name_, Value::Str("durable"));
  obj.Set(pad_, Value::Str("x"));
  auto oid = txns_->Insert(*t1, part_, obj);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(txns_->Commit(*t1).ok());
  const uint64_t durable_ts = txns_->mvcc()->stats().visible_ts;
  ASSERT_EQ(durable_ts, 1u);

  FaultInjector fi;
  wal_->set_fault_injector(&fi);
  auto t2 = txns_->Begin();
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(txns_->SetAttr(*t2, *oid, "Name", Value::Str("lost")).ok());
  // Fail the very next WAL append: Commit allocates its timestamp, then
  // dies writing the stamped kCommit record.
  fi.Arm(FaultOp::kWalAppend, FaultMode::kFail, 1);
  EXPECT_FALSE(txns_->Commit(*t2).ok());
  // The in-memory clock really did run ahead of the log before the crash.
  EXPECT_GT(txns_->mvcc()->stats().commit_ts, durable_ts);
  CloseAll();

  ASSERT_TRUE(OpenStack(nullptr).ok());
  auto stats = RecoveryManager::Recover(store_.get(), wal_.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Only the acknowledged commit is in the log; the allocated-but-never-
  // appended timestamp is gone.
  EXPECT_EQ(stats->max_commit_ts, durable_ts);
  auto got = store_->Get(*oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->Get(name_).as_string(), "durable");

  // The restored clock hands out the next timestamp densely.
  txns_->RestoreCommitClock(stats->max_commit_ts);
  auto t3 = txns_->Begin();
  ASSERT_TRUE(t3.ok());
  ASSERT_TRUE(
      txns_->SetAttr(*t3, *oid, "Name", Value::Str("after")).ok());
  ASSERT_TRUE(txns_->Commit(*t3).ok());
  EXPECT_EQ(txns_->mvcc()->stats().visible_ts, durable_ts + 1);
}

// A tripping failpoint auto-dumps the flight recorder (the trip hook is
// what a soak harness installs to write the trace next to the core): the
// dump must reconstruct the failing commit's complete pipeline stage
// sequence, in order, up to the exact I/O that died.
TEST_F(CrashRecoveryTest, FaultTripDumpsFailingCommitPipeline) {
  FreshFiles();
  FaultInjector fi;
  ASSERT_TRUE(OpenStack(&fi).ok());

  obs::FlightRecorder rec(4096);
  rec.set_enabled(true);
  txns_->AttachTrace(&rec, nullptr);
  store_->AttachTrace(&rec);
  wal_->AttachTrace(&rec);

  std::string dump;
  int trips = 0;
  fi.SetTripHook([&](FaultOp op) {
    ++trips;
    rec.Record(obs::TraceStage::kFaultTrip, obs::TraceEventKind::kInstant, 0,
               static_cast<uint64_t>(op));
    dump = rec.DumpJson();
  });

  auto t1 = txns_->Begin();
  ASSERT_TRUE(t1.ok());
  Object obj;
  obj.Set(name_, Value::Str("doomed"));
  obj.Set(pad_, Value::Str("x"));
  ASSERT_TRUE(txns_->Insert(*t1, part_, obj).ok());
  // Fail the commit record's reserved-slot write-out: the pipeline dies
  // inside its wal_append stage.
  fi.Arm(FaultOp::kWalReserve, FaultMode::kFail, 1);
  ASSERT_FALSE(txns_->Commit(*t1).ok());

  // The hook fired exactly once (crashed-state follow-on I/O never
  // re-invokes it) and captured a dump at the moment of the trip.
  EXPECT_EQ(trips, 1);
  ASSERT_FALSE(dump.empty());

  // The dump's events are timestamp-sorted, so the first occurrence of
  // each stage name reconstructs the failing commit's pipeline order:
  // commit -> clock hold -> promote -> WAL append -> the trip itself.
  size_t p_commit = dump.find("\"stage\":\"commit\"");
  size_t p_clock = dump.find("\"stage\":\"commit_clock\"");
  size_t p_promote = dump.find("\"stage\":\"mvcc_promote\"");
  size_t p_append = dump.find("\"stage\":\"wal_append\"");
  size_t p_trip = dump.find("\"stage\":\"fault_trip\"");
  ASSERT_NE(p_commit, std::string::npos);
  ASSERT_NE(p_clock, std::string::npos);
  ASSERT_NE(p_promote, std::string::npos);
  ASSERT_NE(p_append, std::string::npos);
  ASSERT_NE(p_trip, std::string::npos);
  EXPECT_LT(p_commit, p_clock);
  EXPECT_LT(p_clock, p_promote);
  EXPECT_LT(p_promote, p_append);
  EXPECT_LT(p_append, p_trip);
  // The stages that never ran must be absent from the dump.
  EXPECT_EQ(dump.find("\"stage\":\"mvcc_publish\""), std::string::npos);
  EXPECT_EQ(dump.find("\"stage\":\"wal_sync_wait\""), std::string::npos);

  // After the hook returned, the commit path recorded its failure marker
  // with the consumed timestamp.
  bool saw_fail = false;
  for (const obs::TraceEvent& e : rec.Snapshot()) {
    if (e.stage == obs::TraceStage::kCommitFail) {
      saw_fail = true;
      EXPECT_EQ(e.txn, *t1);
      EXPECT_GT(e.arg, 0u);  // the orphaned commit timestamp
    }
  }
  EXPECT_TRUE(saw_fail);

  txns_->AttachTrace(nullptr, nullptr);
  store_->AttachTrace(nullptr);
  wal_->AttachTrace(nullptr);
}

}  // namespace
}  // namespace kimdb

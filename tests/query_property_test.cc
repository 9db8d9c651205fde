// Property tests for the query stack:
//
//  * plan equivalence -- for randomly generated data and random conjunctive
//    range/equality predicates, an index-assisted execution returns exactly
//    the same OIDs as a full extent scan, across every index kind;
//  * OQL round trip -- randomly generated expression trees survive
//    ToString -> parse -> ToString unchanged;
//  * index consistency under churn -- after random insert/update/delete
//    interleavings, index answers equal scan answers;
//  * index consistency under MVCC snapshots -- with key-changing writers
//    (committed, in flight and aborted) and snapshots pinned after every
//    commit, the index path and the scan path agree at every read_ts, also
//    with writers and snapshot readers running concurrently, and the
//    deferred index removals drain once the last snapshot is released.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "exec/exec_context.h"
#include "index/index_manager.h"
#include "lang/parser.h"
#include "object/mvcc.h"
#include "object/object_store.h"
#include "query/query_engine.h"
#include "storage/disk_manager.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "util/random.h"

namespace kimdb {
namespace {

struct PropEnv {
  std::unique_ptr<DiskManager> disk;
  BufferPool bp;
  Catalog cat;
  ClassId maker, thing, special;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<IndexManager> im;
  std::unique_ptr<QueryEngine> indexed_engine;
  std::unique_ptr<QueryEngine> scan_engine;

  PropEnv() : disk(DiskManager::OpenInMemory()), bp(disk.get(), 1024) {
    maker = *cat.CreateClass("Maker", {}, {{"City", Domain::String()}});
    thing = *cat.CreateClass(
        "Thing", {},
        {{"A", Domain::Int()},
         {"B", Domain::Int()},
         {"MadeBy", Domain::Ref(maker)}});
    special = *cat.CreateClass("Special", {thing}, {});
    auto s = ObjectStore::Open(&bp, &cat, nullptr);
    EXPECT_TRUE(s.ok());
    store = std::move(*s);
    im = std::make_unique<IndexManager>(store.get());
    indexed_engine = std::make_unique<QueryEngine>(store.get(), im.get());
    scan_engine = std::make_unique<QueryEngine>(store.get(), nullptr);
  }
};

class PlanEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanEquivalenceTest, IndexAndScanAgree) {
  PropEnv env;
  Random rng(GetParam());

  // Indexes of all three kinds.
  ASSERT_TRUE(env.im->CreateIndex(IndexKind::kClassHierarchy, env.thing,
                                  {"A"})
                  .ok());
  ASSERT_TRUE(env.im->CreateIndex(IndexKind::kSingleClass, env.special,
                                  {"B"})
                  .ok());
  ASSERT_TRUE(env.im->CreateIndex(IndexKind::kNested, env.thing,
                                  {"MadeBy", "City"})
                  .ok());

  // Random data.
  std::vector<Oid> makers;
  const char* cities[] = {"Austin", "Detroit", "Nagoya", "Berlin"};
  for (int i = 0; i < 10; ++i) {
    Object m;
    m.Set((*env.cat.ResolveAttr(env.maker, "City"))->id,
          Value::Str(cities[rng.Uniform(4)]));
    auto oid = env.store->Insert(0, env.maker, std::move(m));
    ASSERT_TRUE(oid.ok());
    makers.push_back(*oid);
  }
  AttrId a = (*env.cat.ResolveAttr(env.thing, "A"))->id;
  AttrId b = (*env.cat.ResolveAttr(env.thing, "B"))->id;
  AttrId made_by = (*env.cat.ResolveAttr(env.thing, "MadeBy"))->id;
  for (int i = 0; i < 400; ++i) {
    Object o;
    if (!rng.OneIn(10)) o.Set(a, Value::Int(rng.UniformRange(0, 50)));
    if (!rng.OneIn(10)) o.Set(b, Value::Int(rng.UniformRange(0, 50)));
    if (!rng.OneIn(5)) {
      o.Set(made_by, Value::Ref(makers[rng.Uniform(makers.size())]));
    }
    ASSERT_TRUE(env.store
                    ->Insert(0, rng.OneIn(2) ? env.thing : env.special,
                             std::move(o))
                    .ok());
  }

  // Random conjunctive predicates over indexed and unindexed paths.
  auto random_conjunct = [&]() -> ExprPtr {
    switch (rng.Uniform(5)) {
      case 0:
        return Expr::Eq(Expr::Path({"A"}),
                        Expr::Const(Value::Int(rng.UniformRange(0, 50))));
      case 1:
        return Expr::Ge(Expr::Path({"A"}),
                        Expr::Const(Value::Int(rng.UniformRange(0, 50))));
      case 2:
        return Expr::Lt(Expr::Path({"B"}),
                        Expr::Const(Value::Int(rng.UniformRange(0, 50))));
      case 3:
        return Expr::Eq(Expr::Path({"MadeBy", "City"}),
                        Expr::Const(Value::Str(cities[rng.Uniform(4)])));
      default:
        return Expr::Ne(Expr::Path({"B"}),
                        Expr::Const(Value::Int(rng.UniformRange(0, 50))));
    }
  };

  for (int trial = 0; trial < 60; ++trial) {
    Query q;
    q.target = rng.OneIn(3) ? env.special : env.thing;
    q.hierarchy_scope = !rng.OneIn(3);
    ExprPtr pred = random_conjunct();
    size_t extra = rng.Uniform(3);
    for (size_t i = 0; i < extra; ++i) {
      pred = Expr::And(pred, random_conjunct());
    }
    q.predicate = pred;

    auto with_index = env.indexed_engine->Execute(q);
    auto with_scan = env.scan_engine->Execute(q);
    ASSERT_TRUE(with_index.ok()) << with_index.status().ToString();
    ASSERT_TRUE(with_scan.ok());
    std::sort(with_index->begin(), with_index->end());
    std::sort(with_scan->begin(), with_scan->end());
    ASSERT_EQ(*with_index, *with_scan)
        << "trial " << trial << " predicate " << pred->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanEquivalenceTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

class IndexChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexChurnTest, IndexTracksStoreThroughChurn) {
  PropEnv env;
  Random rng(GetParam());
  ASSERT_TRUE(env.im->CreateIndex(IndexKind::kClassHierarchy, env.thing,
                                  {"A"})
                  .ok());
  ASSERT_TRUE(env.im->CreateIndex(IndexKind::kNested, env.thing,
                                  {"MadeBy", "City"})
                  .ok());
  AttrId a = (*env.cat.ResolveAttr(env.thing, "A"))->id;
  AttrId made_by = (*env.cat.ResolveAttr(env.thing, "MadeBy"))->id;
  AttrId city = (*env.cat.ResolveAttr(env.maker, "City"))->id;

  std::vector<Oid> makers, things;
  for (int i = 0; i < 6; ++i) {
    Object m;
    m.Set(city, Value::Str("c" + std::to_string(rng.Uniform(3))));
    auto oid = env.store->Insert(0, env.maker, std::move(m));
    ASSERT_TRUE(oid.ok());
    makers.push_back(*oid);
  }

  for (int step = 0; step < 500; ++step) {
    switch (rng.Uniform(5)) {
      case 0:
      case 1: {  // insert thing
        Object o;
        o.Set(a, Value::Int(rng.UniformRange(0, 20)));
        o.Set(made_by, Value::Ref(makers[rng.Uniform(makers.size())]));
        auto oid = env.store->Insert(
            0, rng.OneIn(2) ? env.thing : env.special, std::move(o));
        ASSERT_TRUE(oid.ok());
        things.push_back(*oid);
        break;
      }
      case 2: {  // mutate a thing
        if (things.empty()) break;
        Oid oid = things[rng.Uniform(things.size())];
        if (!env.store->Exists(oid)) break;
        auto obj = env.store->GetRaw(oid);
        ASSERT_TRUE(obj.ok());
        obj->Set(a, Value::Int(rng.UniformRange(0, 20)));
        if (rng.OneIn(3)) {
          obj->Set(made_by,
                   Value::Ref(makers[rng.Uniform(makers.size())]));
        }
        ASSERT_TRUE(env.store->Update(0, *obj).ok());
        break;
      }
      case 3: {  // move a maker (fans out to all its things)
        Oid oid = makers[rng.Uniform(makers.size())];
        ASSERT_TRUE(env.store
                        ->SetAttr(0, oid, "City",
                                  Value::Str("c" + std::to_string(
                                                       rng.Uniform(3))))
                        .ok());
        break;
      }
      default: {  // delete a thing
        if (things.empty()) break;
        size_t i = rng.Uniform(things.size());
        if (env.store->Exists(things[i])) {
          ASSERT_TRUE(env.store->Delete(0, things[i]).ok());
        }
        things.erase(things.begin() + static_cast<long>(i));
        break;
      }
    }
    if (step % 50 != 0) continue;
    // Check index answers equal scan answers for several probes.
    for (int probe = 0; probe < 5; ++probe) {
      Query q;
      q.target = env.thing;
      q.predicate =
          probe % 2 == 0
              ? Expr::Eq(Expr::Path({"A"}),
                         Expr::Const(Value::Int(rng.UniformRange(0, 20))))
              : Expr::Eq(Expr::Path({"MadeBy", "City"}),
                         Expr::Const(Value::Str(
                             "c" + std::to_string(rng.Uniform(3)))));
      auto w_index = env.indexed_engine->Execute(q);
      auto w_scan = env.scan_engine->Execute(q);
      ASSERT_TRUE(w_index.ok() && w_scan.ok());
      std::sort(w_index->begin(), w_index->end());
      std::sort(w_scan->begin(), w_scan->end());
      ASSERT_EQ(*w_index, *w_scan) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexChurnTest,
                         ::testing::Values(11, 22, 33, 44));

// --- index consistency under MVCC snapshots ------------------------------------

/// Which objects one SnapEnv writer may touch besides its own pools.
struct WriteScope {
  /// Makers new and re-pointed things may reference (the writer's own
  /// `makers` when null): a maker another writer relocates meanwhile.
  const std::vector<Oid>* ref_makers = nullptr;
  /// Objects another open writer holds locks on: never written.
  const std::unordered_set<Oid>* busy = nullptr;
  /// Collects the objects this writer wrote (and so locked).
  std::unordered_set<Oid>* wrote = nullptr;
};

/// PropEnv's schema and indexes of all three kinds, under a TxnManager (so
/// the store versions every write) with the index manager's deferred
/// removals retired on the MVCC prune pass, as Database::Open wires it.
struct SnapEnv {
  std::unique_ptr<DiskManager> disk;
  BufferPool bp;
  Catalog cat;
  ClassId maker, thing, special;
  AttrId a, b, made_by, city;
  std::unique_ptr<ObjectStore> store;
  LockManager locks;
  std::unique_ptr<TxnManager> txns;
  std::unique_ptr<IndexManager> im;
  std::unique_ptr<QueryEngine> indexed_engine;
  std::unique_ptr<QueryEngine> scan_engine;

  SnapEnv() : disk(DiskManager::OpenInMemory()), bp(disk.get(), 1024) {
    maker = *cat.CreateClass("Maker", {}, {{"City", Domain::String()}});
    thing = *cat.CreateClass(
        "Thing", {},
        {{"A", Domain::Int()},
         {"B", Domain::Int()},
         {"MadeBy", Domain::Ref(maker)}});
    special = *cat.CreateClass("Special", {thing}, {});
    a = (*cat.ResolveAttr(thing, "A"))->id;
    b = (*cat.ResolveAttr(thing, "B"))->id;
    made_by = (*cat.ResolveAttr(thing, "MadeBy"))->id;
    city = (*cat.ResolveAttr(maker, "City"))->id;
    auto s = ObjectStore::Open(&bp, &cat, nullptr);
    EXPECT_TRUE(s.ok());
    store = std::move(*s);
    txns = std::make_unique<TxnManager>(store.get(), &locks);
    im = std::make_unique<IndexManager>(store.get());
    IndexManager* raw = im.get();
    txns->mvcc()->SetPruneHook(
        [raw](const std::vector<Oid>& erased) { raw->RetireDeferred(erased); });
    EXPECT_TRUE(im->CreateIndex(IndexKind::kClassHierarchy, thing, {"A"}).ok());
    EXPECT_TRUE(im->CreateIndex(IndexKind::kSingleClass, special, {"B"}).ok());
    EXPECT_TRUE(
        im->CreateIndex(IndexKind::kNested, thing, {"MadeBy", "City"}).ok());
    indexed_engine = std::make_unique<QueryEngine>(store.get(), im.get());
    scan_engine = std::make_unique<QueryEngine>(store.get(), nullptr);
  }
  ~SnapEnv() { txns->mvcc()->SetPruneHook(nullptr); }

  static Value City(uint64_t i) { return Value::Str("c" + std::to_string(i)); }

  /// A random probe over every index: class-hierarchy equality (covered)
  /// and range, single-class equality with a residual, nested equality.
  Query RandomProbe(Random& rng) const {
    Query q;
    q.target = thing;
    q.hierarchy_scope = true;
    auto int_const = [&] { return Expr::Const(Value::Int(rng.Uniform(6))); };
    switch (rng.Uniform(4)) {
      case 0:
        q.predicate = Expr::Eq(Expr::Path({"A"}), int_const());
        break;
      case 1:
        q.predicate = Expr::Ge(Expr::Path({"A"}), int_const());
        break;
      case 2:
        q.target = special;
        q.hierarchy_scope = false;
        q.predicate = Expr::And(Expr::Eq(Expr::Path({"B"}), int_const()),
                                Expr::Ne(Expr::Path({"A"}), int_const()));
        break;
      default:
        q.predicate = Expr::Eq(Expr::Path({"MadeBy", "City"}),
                               Expr::Const(City(rng.Uniform(3))));
        break;
    }
    return q;
  }

  /// Nested-index equality on every city a maker can hold.
  std::vector<Query> NestedProbes() const {
    std::vector<Query> out;
    for (uint64_t c = 0; c < 3; ++c) {
      Query q;
      q.target = thing;
      q.hierarchy_scope = true;
      q.predicate =
          Expr::Eq(Expr::Path({"MadeBy", "City"}), Expr::Const(City(c)));
      out.push_back(std::move(q));
    }
    return out;
  }

  /// Runs `q` at `read_ts` through the index path and the forced-scan
  /// path; returns an empty string if both agree, else a diagnosis.
  std::string Compare(const Query& q, uint64_t read_ts) {
    exec::ExecContext ictx(&bp);
    ictx.set_snapshot(read_ts);
    auto with_index = indexed_engine->Execute(q, &ictx);
    exec::ExecContext sctx(&bp);
    sctx.set_snapshot(read_ts);
    auto with_scan = scan_engine->Execute(q, &sctx);
    if (!with_index.ok() || !with_scan.ok()) return "query failed";
    if (!ictx.used_index.load()) return "index plan did not probe";
    std::sort(with_index->begin(), with_index->end());
    std::sort(with_scan->begin(), with_scan->end());
    if (*with_index == *with_scan) return "";
    return "read_ts " + std::to_string(read_ts) + ": " +
           q.predicate->ToString() + " index=" +
           std::to_string(with_index->size()) +
           " scan=" + std::to_string(with_scan->size());
  }

  /// One random write of `txn` over `things` (key-changing updates,
  /// inserts, deletes) and `makers` (relocations, inserts and deletes that
  /// fan out through the nested index). Failed operations (say, on an
  /// object deleted earlier) leave the transaction usable.
  void RandomWrite(Random& rng, uint64_t txn, std::vector<Oid>* things,
                   std::vector<Oid>* makers, WriteScope scope = {}) {
    const std::vector<Oid>& refs =
        scope.ref_makers != nullptr ? *scope.ref_makers : *makers;
    auto writable = [&](Oid o) {
      if (o.is_nil() || !store->Exists(o)) return false;
      if (scope.busy != nullptr && scope.busy->count(o) > 0) return false;
      if (scope.wrote != nullptr) scope.wrote->insert(o);
      return true;
    };
    auto wrote = [&](const Result<Oid>& oid) {
      if (oid.ok() && scope.wrote != nullptr) scope.wrote->insert(*oid);
      return oid.ok();
    };
    auto pick = [&]() -> Oid {
      return things->empty() ? kNilOid : (*things)[rng.Uniform(things->size())];
    };
    auto pick_maker = [&] { return (*makers)[rng.Uniform(makers->size())]; };
    auto pick_ref = [&] { return refs[rng.Uniform(refs.size())]; };
    switch (rng.Uniform(8)) {
      case 0: {
        Object o;
        o.Set(a, Value::Int(rng.Uniform(6)));
        o.Set(b, Value::Int(rng.Uniform(6)));
        o.Set(made_by, Value::Ref(pick_ref()));
        auto oid = txns->Insert(txn, rng.OneIn(2) ? thing : special,
                                std::move(o));
        if (wrote(oid)) things->push_back(*oid);
        break;
      }
      case 6: {
        Object m;
        m.Set(city, City(rng.Uniform(3)));
        auto oid = txns->Insert(txn, maker, std::move(m));
        if (wrote(oid)) makers->push_back(*oid);
        break;
      }
      case 7:
        if (Oid m = pick_maker(); writable(m)) (void)txns->Delete(txn, m);
        break;
      case 1:
        if (Oid o = pick(); writable(o)) {
          (void)txns->SetAttr(txn, o, "A", Value::Int(rng.Uniform(6)));
        }
        break;
      case 2:
        if (Oid o = pick(); writable(o)) {
          (void)txns->SetAttr(txn, o, "B", Value::Int(rng.Uniform(6)));
        }
        break;
      case 3:
        if (Oid o = pick(); writable(o)) {
          (void)txns->SetAttr(txn, o, "MadeBy", Value::Ref(pick_ref()));
        }
        break;
      case 4:
        if (Oid m = pick_maker(); writable(m)) {
          (void)txns->SetAttr(txn, m, "City", City(rng.Uniform(3)));
        }
        break;
      default:
        if (Oid o = pick(); writable(o)) (void)txns->Delete(txn, o);
        break;
    }
  }

  /// Commits `n_makers` makers and `n_things` things, appending their OIDs.
  void Seed(Random& rng, size_t n_makers, size_t n_things,
            std::vector<Oid>* makers, std::vector<Oid>* things) {
    auto t = txns->Begin();
    ASSERT_TRUE(t.ok());
    for (size_t i = 0; i < n_makers; ++i) {
      Object m;
      m.Set(city, City(rng.Uniform(3)));
      auto oid = txns->Insert(*t, maker, std::move(m));
      ASSERT_TRUE(oid.ok());
      makers->push_back(*oid);
    }
    for (size_t i = 0; i < n_things; ++i) {
      Object o;
      o.Set(a, Value::Int(rng.Uniform(6)));
      o.Set(b, Value::Int(rng.Uniform(6)));
      o.Set(made_by, Value::Ref((*makers)[rng.Uniform(makers->size())]));
      auto oid = txns->Insert(*t, rng.OneIn(2) ? thing : special, std::move(o));
      ASSERT_TRUE(oid.ok());
      things->push_back(*oid);
    }
    ASSERT_TRUE(txns->Commit(*t).ok());
  }
};

/// Seeded single-threaded interleaving: every step is one transaction of
/// 1-3 random writes that commits or (one in four) aborts. One writer in
/// three is held open across the next step, whose writer then commits or
/// aborts while the held one is still in flight (on other objects, which
/// may be path objects the held writer's things reference). Every live
/// snapshot is checked while a writer is in flight and again after each
/// one resolves; a snapshot is pinned after every commit and old pins are
/// released at random. Leaves the remaining pins in `live` and returns the
/// largest deferred-entry count seen.
uint64_t RunSnapshotInterleaving(SnapEnv& env, uint64_t seed, int steps,
                                 std::deque<Snapshot>* live) {
  Random rng(seed);
  std::vector<Oid> makers, things;
  env.Seed(rng, 4, 60, &makers, &things);
  uint64_t max_deferred = 0;
  // Random probes, plus every nested key: a snapshot that pairs versions
  // of different hops is wrong on one specific city, not on most.
  auto check_all = [&](const char* when, int step) {
    for (const Snapshot& snap : *live) {
      std::vector<Query> probes = env.NestedProbes();
      for (int probe = 0; probe < 4; ++probe) {
        probes.push_back(env.RandomProbe(rng));
      }
      for (const Query& q : probes) {
        std::string diff = env.Compare(q, snap.read_ts());
        ASSERT_EQ(diff, "") << "seed " << seed << " step " << step << " "
                            << when;
      }
    }
  };
  auto resolve = [&](uint64_t txn) {
    if (rng.OneIn(4)) {
      EXPECT_TRUE(env.txns->Abort(txn).ok());
    } else {
      EXPECT_TRUE(env.txns->Commit(txn).ok());
      live->push_back(env.txns->AcquireSnapshot());
    }
    while (live->size() > 5 || (!live->empty() && rng.OneIn(3))) {
      // Release a random pin (not always the oldest), so the watermark
      // moves in uneven steps.
      size_t i = rng.Uniform(live->size());
      live->erase(live->begin() + static_cast<long>(i));
    }
  };
  uint64_t held = 0;  // writer left open across a step (0: none)
  std::unordered_set<Oid> held_wrote;  // the objects it locked
  for (int step = 0; step < steps; ++step) {
    auto txn = env.txns->Begin();
    EXPECT_TRUE(txn.ok());
    if (!txn.ok()) return max_deferred;
    std::unordered_set<Oid> wrote;
    WriteScope scope;
    scope.busy = held != 0 ? &held_wrote : nullptr;
    scope.wrote = &wrote;
    size_t n = 1 + rng.Uniform(3);
    for (size_t i = 0; i < n; ++i) {
      env.RandomWrite(rng, *txn, &things, &makers, scope);
    }
    max_deferred =
        std::max(max_deferred, env.im->stats().deferred_entries);
    check_all("writer in flight", step);
    if (::testing::Test::HasFatalFailure()) return max_deferred;
    if (held == 0 && rng.OneIn(3)) {
      held = *txn;
      held_wrote = std::move(wrote);
      continue;
    }
    resolve(*txn);
    check_all(held != 0 ? "writer resolved, held one in flight"
                        : "writer resolved",
              step);
    if (::testing::Test::HasFatalFailure()) return max_deferred;
    if (held != 0) {
      resolve(held);
      held = 0;
      check_all("held writer resolved", step);
      if (::testing::Test::HasFatalFailure()) return max_deferred;
    }
  }
  if (held != 0) resolve(held);
  return max_deferred;
}

class SnapshotIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotIndexPropertyTest, IndexAndScanAgreeAtEveryReadTs) {
  SnapEnv env;
  std::deque<Snapshot> live;
  uint64_t max_deferred = RunSnapshotInterleaving(env, GetParam(), 80, &live);
  // The workload must actually exercise deferred removals.
  EXPECT_GT(max_deferred, 0u);
}

TEST_P(SnapshotIndexPropertyTest, DeferredEntriesDrainAfterLastSnapshot) {
  SnapEnv env;
  std::deque<Snapshot> live;
  RunSnapshotInterleaving(env, GetParam(), 40, &live);
  ASSERT_FALSE(HasFatalFailure());
  // Pin one more snapshot behind a final key-changing commit so at least
  // one removal is still deferred when the writers stop.
  live.push_back(env.txns->AcquireSnapshot());
  auto t = env.txns->Begin();
  ASSERT_TRUE(t.ok());
  Oid victim = kNilOid;
  ASSERT_TRUE(env.store
                  ->ForEachInClass(env.thing,
                                   [&](const Object& o) {
                                     if (victim.is_nil()) victim = o.oid();
                                     return Status::OK();
                                   })
                  .ok());
  ASSERT_FALSE(victim.is_nil());
  ASSERT_TRUE(env.txns->SetAttr(*t, victim, "A", Value::Int(100)).ok());
  ASSERT_TRUE(env.txns->Commit(*t).ok());
  EXPECT_GT(env.im->stats().deferred_entries, 0u);

  live.clear();  // the last snapshot goes; its release runs a prune pass
  EXPECT_EQ(env.im->stats().deferred_entries, 0u);
  EXPECT_GT(env.im->stats().deferred_retired, 0u);
  EXPECT_EQ(env.txns->mvcc()->stats().versions_chains, 0u);
  // Drained means exact: every probe needs no re-check and equals the scan.
  for (const IndexInfo* info : env.im->AllIndexes()) {
    for (int k = 0; k < 6; ++k) {
      std::vector<Oid> out;
      SnapshotCheck check = SnapshotCheck::kScan;
      ASSERT_TRUE(env.im
                      ->LookupEq(*info, Value::Int(k), info->target_class,
                                 true, &out, &check)
                      .ok());
      EXPECT_EQ(check, SnapshotCheck::kNone);
    }
  }
  Random rng(GetParam());
  Snapshot now = env.txns->AcquireSnapshot();
  for (int probe = 0; probe < 20; ++probe) {
    EXPECT_EQ(env.Compare(env.RandomProbe(rng), now.read_ts()), "");
  }
}

// Sixteen seeds: a held writer and the next one line up on one thing and
// its maker only now and then (a few seeds in sixteen).
INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotIndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 17));

// Two writers on disjoint objects (aborting one in four) race two readers
// that pin a snapshot, probe through the index and through the scan at the
// same read_ts, and release it. The writers' things reference the makers
// of both, so one writer relocates path objects of the other's things
// while that one re-points or inserts them. Every comparison must agree;
// once the writers stop and the readers let go, the deferred removals
// drain.
TEST(SnapshotIndexConcurrencyTest, TwoWritersTwoSnapshotReaders) {
  SnapEnv env;
  Random seed_rng(7);
  std::vector<Oid> makers[2], things[2], shared_makers;
  for (int w = 0; w < 2; ++w) {
    env.Seed(seed_rng, 3, 0, &makers[w], &things[w]);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    shared_makers.insert(shared_makers.end(), makers[w].begin(),
                         makers[w].end());
  }
  for (int w = 0; w < 2; ++w) {
    std::vector<Oid> refs = shared_makers;
    env.Seed(seed_rng, 0, 40, &refs, &things[w]);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  std::atomic<int> writers_left{2};
  std::atomic<int> comparisons{0};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto writer = [&](int w) {
    Random rng(100 + w);
    // Keep writing until the readers have compared enough snapshots
    // against in-flight writes (a bare count of transactions can finish
    // before a reader thread is even scheduled).
    for (int i = 0; i < 150 || comparisons.load() < 300; ++i) {
      auto txn = env.txns->Begin();
      if (!txn.ok()) continue;
      size_t n = 1 + rng.Uniform(3);
      WriteScope scope;
      scope.ref_makers = &shared_makers;
      for (size_t k = 0; k < n; ++k) {
        env.RandomWrite(rng, *txn, &things[w], &makers[w], scope);
      }
      if (rng.OneIn(4)) {
        (void)env.txns->Abort(*txn);
      } else if (!env.txns->Commit(*txn).ok()) {
        (void)env.txns->Abort(*txn);
      }
    }
    writers_left.fetch_sub(1);
  };
  auto reader = [&](int r) {
    Random rng(200 + r);
    while (writers_left.load() > 0) {
      Snapshot snap = env.txns->AcquireSnapshot();
      for (int probe = 0; probe < 3; ++probe) {
        std::string diff = env.Compare(env.RandomProbe(rng), snap.read_ts());
        comparisons.fetch_add(1);
        if (!diff.empty()) {
          std::lock_guard<std::mutex> lock(failures_mu);
          failures.push_back(diff);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(writer, 0);
  threads.emplace_back(writer, 1);
  threads.emplace_back(reader, 0);
  threads.emplace_back(reader, 1);
  for (std::thread& t : threads) t.join();
  EXPECT_GT(comparisons.load(), 0);
  EXPECT_TRUE(failures.empty()) << failures.size() << " mismatches, first: "
                                << (failures.empty() ? "" : failures[0]);
  // No writer or snapshot is left: one more prune pass (a snapshot's
  // release) must find every cause's chain gone.
  env.txns->AcquireSnapshot().Release();
  EXPECT_EQ(env.im->stats().deferred_entries, 0u);
}

// --- OQL round-trip property -----------------------------------------------------

ExprPtr RandomExpr(Random& rng, int depth) {
  if (depth == 0 || rng.OneIn(3)) {
    // Leaf comparison.
    ExprPtr lhs = Expr::Path({rng.OneIn(2)
                                  ? "Weight"
                                  : std::string("attr") +
                                        std::to_string(rng.Uniform(5))});
    ExprPtr rhs;
    switch (rng.Uniform(3)) {
      case 0:
        rhs = Expr::Const(Value::Int(rng.UniformRange(-100, 100)));
        break;
      case 1:
        rhs = Expr::Const(Value::Str(rng.NextString(5)));
        break;
      default:
        rhs = Expr::Const(Value::Bool(rng.OneIn(2)));
        break;
    }
    switch (rng.Uniform(6)) {
      case 0:
        return Expr::Eq(lhs, rhs);
      case 1:
        return Expr::Ne(lhs, rhs);
      case 2:
        return Expr::Lt(lhs, rhs);
      case 3:
        return Expr::Le(lhs, rhs);
      case 4:
        return Expr::Gt(lhs, rhs);
      default:
        return Expr::Ge(lhs, rhs);
    }
  }
  switch (rng.Uniform(3)) {
    case 0:
      return Expr::And(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    case 1:
      return Expr::Or(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    default:
      return Expr::Not(RandomExpr(rng, depth - 1));
  }
}

class OqlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OqlRoundTripTest, ToStringParsesBackIdentically) {
  Catalog cat;
  lang::Parser parser(&cat);
  Random rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    ExprPtr e = RandomExpr(rng, 3);
    std::string text = e->ToString();
    auto parsed = parser.ParseExpression(text);
    ASSERT_TRUE(parsed.ok())
        << text << " -> " << parsed.status().ToString();
    ASSERT_EQ((*parsed)->ToString(), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OqlRoundTripTest,
                         ::testing::Values(7, 14, 21));

}  // namespace
}  // namespace kimdb

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "index/btree.h"
#include "index/index_manager.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace kimdb {
namespace {

// --- B+-tree ------------------------------------------------------------------

TEST(BPlusTreeTest, InsertFindRemove) {
  BPlusTree tree(8);
  tree.Insert(Value::Int(5), Oid::Make(1, 1));
  tree.Insert(Value::Int(5), Oid::Make(1, 2));
  tree.Insert(Value::Int(7), Oid::Make(2, 1));

  const Posting* p = tree.Find(Value::Int(5));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->size(), 2u);
  EXPECT_EQ(tree.num_keys(), 2u);
  EXPECT_EQ(tree.num_entries(), 3u);

  EXPECT_TRUE(tree.Remove(Value::Int(5), Oid::Make(1, 1)));
  EXPECT_FALSE(tree.Remove(Value::Int(5), Oid::Make(1, 1)));  // gone
  EXPECT_EQ(tree.Find(Value::Int(5))->size(), 1u);
  EXPECT_TRUE(tree.Remove(Value::Int(5), Oid::Make(1, 2)));
  EXPECT_EQ(tree.Find(Value::Int(5)), nullptr);  // key vanished
  EXPECT_EQ(tree.num_keys(), 1u);
}

TEST(BPlusTreeTest, DuplicateInsertIsIdempotent) {
  BPlusTree tree(8);
  tree.Insert(Value::Int(1), Oid::Make(1, 1));
  tree.Insert(Value::Int(1), Oid::Make(1, 1));
  EXPECT_EQ(tree.num_entries(), 1u);
}

TEST(BPlusTreeTest, SplitsKeepAllKeysFindable) {
  BPlusTree tree(4);  // tiny fanout forces deep trees
  for (int i = 0; i < 1000; ++i) {
    tree.Insert(Value::Int(i * 7 % 1000), Oid::Make(1, i));
  }
  EXPECT_GT(tree.height(), 2);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(tree.Find(Value::Int(i)), nullptr) << i;
  }
}

TEST(BPlusTreeTest, RangeScanInOrder) {
  BPlusTree tree(4);
  for (int i = 0; i < 200; ++i) tree.Insert(Value::Int(i), Oid::Make(1, i));
  std::vector<int64_t> seen;
  ASSERT_TRUE(tree.Scan(Value::Int(50), true, Value::Int(59), true,
                        [&](const Value& k, const Posting&) {
                          seen.push_back(k.as_int());
                          return Status::OK();
                        })
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), 50);
  EXPECT_EQ(seen.back(), 59);
}

TEST(BPlusTreeTest, ScanBoundsExclusiveAndOpen) {
  BPlusTree tree(4);
  for (int i = 0; i < 10; ++i) tree.Insert(Value::Int(i), Oid::Make(1, i));
  std::vector<int64_t> seen;
  auto collect = [&](const Value& k, const Posting&) {
    seen.push_back(k.as_int());
    return Status::OK();
  };
  ASSERT_TRUE(tree.Scan(Value::Int(3), false, Value::Int(6), false, collect)
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{4, 5}));
  seen.clear();
  ASSERT_TRUE(tree.Scan(std::nullopt, true, Value::Int(2), true, collect)
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2}));
  seen.clear();
  ASSERT_TRUE(tree.Scan(Value::Int(8), true, std::nullopt, true, collect)
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{8, 9}));
}

TEST(BPlusTreeTest, MixedKeyKindsOrderConsistently) {
  BPlusTree tree(4);
  tree.Insert(Value::Str("apple"), Oid::Make(1, 1));
  tree.Insert(Value::Int(5), Oid::Make(1, 2));
  tree.Insert(Value::Real(2.5), Oid::Make(1, 3));
  std::vector<std::string> kinds;
  ASSERT_TRUE(tree.Scan(std::nullopt, true, std::nullopt, true,
                        [&](const Value& k, const Posting&) {
                          kinds.push_back(k.ToString());
                          return Status::OK();
                        })
                  .ok());
  // Numbers sort before strings (kind rank order).
  EXPECT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds.back(), "\"apple\"");
}

class BTreeChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeChurnTest, MatchesReferenceMultimap) {
  // The first and the last class id a 24-bit OID class field holds, so a
  // class subrange bound that wraps past the largest class shows.
  const std::vector<ClassId> kClasses{0, 1, 2, 0xFFFFFF};
  BPlusTree tree(8);
  std::map<int64_t, std::set<uint64_t>> ref;
  Random rng(GetParam());
  for (int step = 0; step < 5000; ++step) {
    int64_t key = static_cast<int64_t>(rng.Uniform(300));
    uint64_t serial = rng.Uniform(50);
    Oid oid = Oid::Make(kClasses[rng.Uniform(kClasses.size())], serial);
    if (rng.OneIn(3)) {
      bool removed = tree.Remove(Value::Int(key), oid);
      bool expected = ref.count(key) && ref[key].erase(oid.raw()) > 0;
      if (ref.count(key) && ref[key].empty()) ref.erase(key);
      ASSERT_EQ(removed, expected);
    } else {
      tree.Insert(Value::Int(key), oid);
      ref[key].insert(oid.raw());
    }
  }
  // Full scan equivalence.
  std::map<int64_t, std::set<uint64_t>> got;
  ASSERT_TRUE(tree.Scan(std::nullopt, true, std::nullopt, true,
                        [&](const Value& k, const Posting& p) {
                          for (Oid o : p.oids) got[k.as_int()].insert(o.raw());
                          return Status::OK();
                        })
                  .ok());
  EXPECT_EQ(got, ref);
  // A scope collects exactly its classes' OIDs, class by class in scope
  // order, for every subset of the classes in either order.
  for (const auto& [key, oids] : ref) {
    const Posting* p = tree.Find(Value::Int(key));
    ASSERT_NE(p, nullptr);
    for (uint32_t mask = 0; mask < (1u << kClasses.size()); ++mask) {
      std::vector<ClassId> scope;
      for (size_t i = 0; i < kClasses.size(); ++i) {
        if (mask & (1u << i)) scope.push_back(kClasses[i]);
      }
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<Oid> want;
        for (ClassId cls : scope) {
          for (uint64_t raw : oids) {
            if (Oid(raw).class_id() == cls) want.push_back(Oid(raw));
          }
        }
        std::vector<Oid> collected;
        p->CollectInto(scope, &collected);
        ASSERT_EQ(collected, want) << "key " << key << " mask " << mask;
        std::reverse(scope.begin(), scope.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeChurnTest,
                         ::testing::Values(1, 9, 42, 77));

// --- IndexManager ----------------------------------------------------------------

class IndexManagerTest : public ::testing::Test {
 protected:
  IndexManagerTest()
      : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 512) {
    company_ = *cat_.CreateClass(
        "Company", {},
        {{"Name", Domain::String()}, {"Location", Domain::String()}});
    vehicle_ = *cat_.CreateClass(
        "Vehicle", {},
        {{"Weight", Domain::Int()},
         {"Manufacturer", Domain::Ref(company_)},
         {"Tags", Domain::SetOf(Domain::String())}});
    auto_ = *cat_.CreateClass("Automobile", {vehicle_}, {});
    truck_ = *cat_.CreateClass("Truck", {vehicle_},
                               {{"Payload", Domain::Int()}});
    auto store = ObjectStore::Open(&bp_, &cat_, nullptr);
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
    im_ = std::make_unique<IndexManager>(store_.get());
  }

  Oid Put(ClassId cls, std::vector<std::pair<std::string, Value>> attrs) {
    auto obj = BuildObject(cat_, cls, attrs);
    EXPECT_TRUE(obj.ok()) << obj.status().ToString();
    auto oid = store_->Insert(1, cls, std::move(*obj));
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return *oid;
  }

  std::vector<Oid> Eq(const IndexInfo* idx, Value key, ClassId scope,
                      bool hierarchy) {
    std::vector<Oid> out;
    EXPECT_TRUE(im_->LookupEq(*idx, key, scope, hierarchy, &out).ok());
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
  Catalog cat_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<IndexManager> im_;
  ClassId company_, vehicle_, auto_, truck_;
};

TEST_F(IndexManagerTest, SingleClassIndexCoversOnlyThatClass) {
  Oid v = Put(vehicle_, {{"Weight", Value::Int(1000)}});
  Put(truck_, {{"Weight", Value::Int(1000)}});
  auto id = im_->CreateIndex(IndexKind::kSingleClass, vehicle_, {"Weight"});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  auto hits = Eq(*idx, Value::Int(1000), vehicle_, false);
  EXPECT_EQ(hits, std::vector<Oid>{v});
}

TEST_F(IndexManagerTest, ClassHierarchyIndexCoversSubtree) {
  Oid v = Put(vehicle_, {{"Weight", Value::Int(1000)}});
  Oid t = Put(truck_, {{"Weight", Value::Int(1000)}});
  Oid a = Put(auto_, {{"Weight", Value::Int(2000)}});
  auto id = im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                             {"Weight"});
  ASSERT_TRUE(id.ok());
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  // Hierarchy scope at the root sees both classes.
  auto hits = Eq(*idx, Value::Int(1000), vehicle_, true);
  std::vector<Oid> expect{v, t};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(hits, expect);
  // Scoped to Truck only.
  EXPECT_EQ(Eq(*idx, Value::Int(1000), truck_, true), std::vector<Oid>{t});
  // Single-class scope at the root excludes subclasses.
  EXPECT_EQ(Eq(*idx, Value::Int(1000), vehicle_, false),
            std::vector<Oid>{v});
  // Automobile scope with a different key.
  EXPECT_EQ(Eq(*idx, Value::Int(2000), auto_, true), std::vector<Oid>{a});
}

TEST_F(IndexManagerTest, IndexMaintainedAcrossMutations) {
  auto id = im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                             {"Weight"});
  ASSERT_TRUE(id.ok());
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  Oid v = Put(vehicle_, {{"Weight", Value::Int(500)}});
  EXPECT_EQ(Eq(*idx, Value::Int(500), vehicle_, true), std::vector<Oid>{v});
  ASSERT_TRUE(store_->SetAttr(1, v, "Weight", Value::Int(600)).ok());
  EXPECT_TRUE(Eq(*idx, Value::Int(500), vehicle_, true).empty());
  EXPECT_EQ(Eq(*idx, Value::Int(600), vehicle_, true), std::vector<Oid>{v});
  ASSERT_TRUE(store_->Delete(1, v).ok());
  EXPECT_TRUE(Eq(*idx, Value::Int(600), vehicle_, true).empty());
}

TEST_F(IndexManagerTest, SetValuedAttributeIsMultikey) {
  auto id = im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_, {"Tags"});
  ASSERT_TRUE(id.ok());
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  Oid v = Put(vehicle_, {{"Tags", Value::Set({Value::Str("fast"),
                                              Value::Str("red")})}});
  EXPECT_EQ(Eq(*idx, Value::Str("fast"), vehicle_, true),
            std::vector<Oid>{v});
  EXPECT_EQ(Eq(*idx, Value::Str("red"), vehicle_, true),
            std::vector<Oid>{v});
  // Removing one tag removes exactly that key.
  ASSERT_TRUE(store_->SetAttr(1, v, "Tags",
                              Value::Set({Value::Str("red")}))
                  .ok());
  EXPECT_TRUE(Eq(*idx, Value::Str("fast"), vehicle_, true).empty());
  EXPECT_EQ(Eq(*idx, Value::Str("red"), vehicle_, true),
            std::vector<Oid>{v});
}

TEST_F(IndexManagerTest, NestedIndexFindsTargetsThroughPath) {
  auto id = im_->CreateIndex(IndexKind::kNested, vehicle_,
                             {"Manufacturer", "Location"});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());

  Oid gm = Put(company_, {{"Name", Value::Str("GM")},
                          {"Location", Value::Str("Detroit")}});
  Oid toyota = Put(company_, {{"Name", Value::Str("Toyota")},
                              {"Location", Value::Str("Nagoya")}});
  Oid v1 = Put(truck_, {{"Weight", Value::Int(9000)},
                        {"Manufacturer", Value::Ref(gm)}});
  Oid v2 = Put(auto_, {{"Weight", Value::Int(2000)},
                       {"Manufacturer", Value::Ref(toyota)}});

  EXPECT_EQ(Eq(*idx, Value::Str("Detroit"), vehicle_, true),
            std::vector<Oid>{v1});
  EXPECT_EQ(Eq(*idx, Value::Str("Nagoya"), vehicle_, true),
            std::vector<Oid>{v2});
}

TEST_F(IndexManagerTest, NestedIndexMaintainedOnIntermediateUpdate) {
  auto id = im_->CreateIndex(IndexKind::kNested, vehicle_,
                             {"Manufacturer", "Location"});
  ASSERT_TRUE(id.ok());
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  Oid gm = Put(company_, {{"Location", Value::Str("Detroit")}});
  Oid v1 = Put(vehicle_, {{"Manufacturer", Value::Ref(gm)}});
  Oid v2 = Put(truck_, {{"Manufacturer", Value::Ref(gm)}});
  ASSERT_EQ(Eq(*idx, Value::Str("Detroit"), vehicle_, true).size(), 2u);

  // The *company* moves: every vehicle it manufactures must be re-keyed.
  ASSERT_TRUE(store_->SetAttr(1, gm, "Location", Value::Str("Austin")).ok());
  EXPECT_TRUE(Eq(*idx, Value::Str("Detroit"), vehicle_, true).empty());
  auto hits = Eq(*idx, Value::Str("Austin"), vehicle_, true);
  std::vector<Oid> expect{v1, v2};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(hits, expect);
}

TEST_F(IndexManagerTest, NestedIndexMaintainedOnRefRetargetAndDelete) {
  auto id = im_->CreateIndex(IndexKind::kNested, vehicle_,
                             {"Manufacturer", "Location"});
  ASSERT_TRUE(id.ok());
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  Oid gm = Put(company_, {{"Location", Value::Str("Detroit")}});
  Oid toyota = Put(company_, {{"Location", Value::Str("Nagoya")}});
  Oid v = Put(vehicle_, {{"Manufacturer", Value::Ref(gm)}});

  // Retarget the vehicle's manufacturer.
  ASSERT_TRUE(store_->SetAttr(1, v, "Manufacturer", Value::Ref(toyota)).ok());
  EXPECT_TRUE(Eq(*idx, Value::Str("Detroit"), vehicle_, true).empty());
  EXPECT_EQ(Eq(*idx, Value::Str("Nagoya"), vehicle_, true),
            std::vector<Oid>{v});

  // Deleting the company leaves the path dangling: the key disappears.
  ASSERT_TRUE(store_->Delete(1, toyota).ok());
  EXPECT_TRUE(Eq(*idx, Value::Str("Nagoya"), vehicle_, true).empty());
}

TEST_F(IndexManagerTest, NestedIndexRejectsNonRefStep) {
  auto r = im_->CreateIndex(IndexKind::kNested, vehicle_,
                            {"Weight", "Location"});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(IndexManagerTest, FindIndexForRespectsScopeAndKind) {
  auto single =
      im_->CreateIndex(IndexKind::kSingleClass, truck_, {"Weight"});
  auto ch = im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                             {"Weight"});
  ASSERT_TRUE(single.ok() && ch.ok());
  // Hierarchy query on Vehicle: only the CH index qualifies.
  const IndexInfo* f = im_->FindIndexFor(vehicle_, {"Weight"}, true);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->id, *ch);
  // Single-class query on Truck: the exact single-class index wins.
  f = im_->FindIndexFor(truck_, {"Weight"}, false);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->id, *single);
  // No index on this path at all.
  EXPECT_EQ(im_->FindIndexFor(vehicle_, {"Tags", "x"}, true), nullptr);
}

TEST_F(IndexManagerTest, RangeLookupHonorsScope) {
  auto id = im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                             {"Weight"});
  ASSERT_TRUE(id.ok());
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 10; ++i) {
    Put(i % 2 == 0 ? vehicle_ : truck_, {{"Weight", Value::Int(i * 100)}});
  }
  std::vector<Oid> out;
  ASSERT_TRUE(im_->LookupRange(**idx, Value::Int(300), true,
                               Value::Int(700), true, truck_, true, &out)
                  .ok());
  // Trucks with weights 300, 500, 700.
  EXPECT_EQ(out.size(), 3u);
  for (Oid o : out) EXPECT_EQ(o.class_id(), truck_);
}

TEST_F(IndexManagerTest, BuildDerivesKeysWithoutFetchingTargets) {
  for (int i = 0; i < 20; ++i) {
    Put(i % 2 == 0 ? vehicle_ : truck_, {{"Weight", Value::Int(i % 5)}});
  }
  ObjectCacheStats before = store_->object_cache().stats();
  auto single = im_->CreateIndex(IndexKind::kSingleClass, vehicle_,
                                 {"Weight"});
  auto ch = im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                             {"Weight"});
  ASSERT_TRUE(single.ok() && ch.ok());
  ObjectCacheStats after = store_->object_cache().stats();
  // Every ObjectStore::Get counts one cache hit or miss: the build keys
  // each target from the image its extent walk already decoded.
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
  EXPECT_EQ(im_->StatsFor(*single).entries, 10u);
  EXPECT_EQ(im_->StatsFor(*ch).entries, 20u);
}

TEST_F(IndexManagerTest, BuildKeysDefaultedAttributeOfOldRecords) {
  Oid v = Put(vehicle_, {{"Weight", Value::Int(1)}});
  // Records stored before the attribute existed lack it on the heap; the
  // materialized object carries its default.
  ASSERT_TRUE(
      cat_.AddAttribute(vehicle_, {"Color", Domain::String(),
                                   Value::Str("black")})
          .ok());
  auto id = im_->CreateIndex(IndexKind::kSingleClass, vehicle_, {"Color"});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto idx = im_->GetIndex(*id);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(Eq(*idx, Value::Str("black"), vehicle_, false),
            std::vector<Oid>{v});
  // Writing another attribute keeps the defaulted key.
  ASSERT_TRUE(store_->SetAttr(1, v, "Weight", Value::Int(2)).ok());
  EXPECT_EQ(Eq(*idx, Value::Str("black"), vehicle_, false),
            std::vector<Oid>{v});
  // Writing the indexed attribute replaces it.
  ASSERT_TRUE(store_->SetAttr(1, v, "Color", Value::Str("red")).ok());
  EXPECT_TRUE(Eq(*idx, Value::Str("black"), vehicle_, false).empty());
  EXPECT_EQ(Eq(*idx, Value::Str("red"), vehicle_, false),
            std::vector<Oid>{v});
}

TEST_F(IndexManagerTest, DropIndexStopsMaintenance) {
  auto id = im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                             {"Weight"});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(im_->DropIndex(*id).ok());
  EXPECT_TRUE(im_->GetIndex(*id).status().IsNotFound());
  // Mutations after the drop do not crash.
  Put(vehicle_, {{"Weight", Value::Int(1)}});
}

}  // namespace
}  // namespace kimdb

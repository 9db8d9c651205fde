// Cross-module integration tests: each scenario exercises several
// subsystems through the public Database facade, including crash/reopen
// cycles against real files.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/database.h"
#include "util/random.h"

namespace kimdb {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/kimdb_it_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Cleanup();
    Reopen();
  }

  void TearDown() override {
    db_.reset();
    Cleanup();
  }

  void Cleanup() {
    ::remove((base_ + ".db").c_str());
    ::remove((base_ + ".wal").c_str());
  }

  void Reopen(size_t pool_pages = 1024) {
    db_.reset();
    DatabaseOptions opts;
    opts.path = base_;
    opts.buffer_pool_pages = pool_pages;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  std::string base_;
  std::unique_ptr<Database> db_;
};

TEST_F(IntegrationTest, IndexReflectsRecoveredStateAfterCrash) {
  ASSERT_TRUE(db_->CreateClass("Item", {}, {{"K", Domain::Int()}}).ok());
  ClassId item = *db_->FindClass("Item");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy, item, {"K"})
                  .ok());

  // Committed: K=1. Uncommitted: K=2.
  auto t1 = db_->Begin();
  auto committed = db_->Insert(*t1, "Item", {{"K", Value::Int(1)}});
  ASSERT_TRUE(committed.ok());
  ASSERT_TRUE(db_->Commit(*t1).ok());
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->Insert(*t2, "Item", {{"K", Value::Int(2)}}).ok());
  // Crash with t2 open.
  Reopen();

  // The rebuilt index must contain exactly the recovered (committed) data.
  QueryStats stats;
  auto hits1 = db_->ExecuteOql("select Item where K = 1", &stats);
  ASSERT_TRUE(hits1.ok());
  EXPECT_EQ(*hits1, std::vector<Oid>{*committed});
  EXPECT_TRUE(stats.used_index);
  auto hits2 = db_->ExecuteOql("select Item where K = 2");
  ASSERT_TRUE(hits2.ok());
  EXPECT_TRUE(hits2->empty());
}

TEST_F(IntegrationTest, CompositeTreeSurvivesReopenWithClustering) {
  ASSERT_TRUE(db_->CreateClass("Asm", {}, {{"Name", Domain::String()}})
                  .ok());
  auto t = db_->Begin();
  auto root = db_->Insert(*t, "Asm", {{"Name", Value::Str("root")}});
  ASSERT_TRUE(root.ok());
  std::vector<Oid> children;
  for (int i = 0; i < 10; ++i) {
    auto c = db_->Insert(*t, "Asm",
                         {{"Name", Value::Str("c" + std::to_string(i))}},
                         /*cluster_hint=*/*root);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(db_->composites().AttachChild(*t, *c, *root).ok());
    children.push_back(*c);
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(db_->Close().ok());

  Reopen();
  // The composite map is rebuilt from stored part-of links.
  EXPECT_EQ(db_->composites().ChildrenOf(*root).size(), 10u);
  auto count = db_->composites().ComponentCount(*root);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 11u);
  // Clustered placement: children share the root's page.
  auto root_rid = db_->store().DirectoryLookup(*root);
  ASSERT_TRUE(root_rid.ok());
  int same_page = 0;
  for (Oid c : children) {
    auto rid = db_->store().DirectoryLookup(c);
    ASSERT_TRUE(rid.ok());
    if (rid->page_id == root_rid->page_id) ++same_page;
  }
  EXPECT_GT(same_page, 5);
  // Cascading delete after reopen.
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->composites().DeleteComposite(*t2, *root).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  for (Oid c : children) EXPECT_FALSE(db_->store().Exists(c));
}

TEST_F(IntegrationTest, VersionGraphSurvivesCrash) {
  ASSERT_TRUE(db_->CreateClass("Design", {}, {{"Rev", Domain::String()}})
                  .ok());
  auto t = db_->Begin();
  auto v1 = db_->Insert(*t, "Design", {{"Rev", Value::Str("a")}});
  ASSERT_TRUE(v1.ok());
  auto generic = db_->versions().MakeVersionable(*t, *v1);
  ASSERT_TRUE(generic.ok());
  auto v2 = db_->versions().DeriveVersion(*t, *v1);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(db_->versions().Release(*t, *v1).ok());
  ASSERT_TRUE(db_->versions().SetDefault(*t, *generic, *v2).ok());
  ASSERT_TRUE(db_->Commit(*t).ok());
  Reopen();  // crash (no clean close)

  EXPECT_TRUE(db_->versions().IsGeneric(*generic));
  EXPECT_TRUE(db_->versions().IsReleased(*v1));
  EXPECT_EQ(*db_->versions().Resolve(*generic), *v2);
  EXPECT_EQ(*db_->versions().VersionNumberOf(*v2), 2);
  auto versions = db_->versions().VersionsOf(*generic);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 2u);
  // Derivation continues with the persisted counter.
  auto t2 = db_->Begin();
  auto v3 = db_->versions().DeriveVersion(*t2, *v2);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*db_->versions().VersionNumberOf(*v3), 3);
  ASSERT_TRUE(db_->Commit(*t2).ok());
}

TEST_F(IntegrationTest, CheckoutMarkSurvivesCrash) {
  ASSERT_TRUE(db_->CreateClass("Doc", {}, {{"Body", Domain::String()}})
                  .ok());
  auto t = db_->Begin();
  auto doc = db_->Insert(*t, "Doc", {{"Body", Value::Str("draft")}});
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto priv = PrivateDb::Create("alice", &db_->catalog());
  ASSERT_TRUE(priv.ok());
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->checkout().Checkout(*t2, priv->get(), *doc).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  // Crash: the private (volatile) db dies with the process, and the mark
  // survives.
  priv->reset();
  Reopen();

  // The persistent write fence still holds after restart -- exactly the
  // long-transaction semantics §3.3 asks for.
  EXPECT_TRUE(db_->checkout().IsCheckedOut(*doc));
  EXPECT_EQ(*db_->checkout().CheckedOutBy(*doc), "alice");
  auto t3 = db_->Begin();
  EXPECT_TRUE(db_->Set(*t3, *doc, "Body", Value::Str("x")).IsBusy());
  // Recovery path for an orphaned checkout: a new private db with the same
  // name re-checks-in or cancels.
  auto priv2 = PrivateDb::Create("alice", &db_->catalog());
  ASSERT_TRUE(priv2.ok());
  // The private copy is gone, so cancel (abandon) the checkout.
  auto copy = (*priv2)->store()->GetRaw(*doc);
  EXPECT_FALSE(copy.ok());
  ASSERT_TRUE(
      db_->checkout().CancelCheckout(*t3, priv2->get(), *doc).ok());
  EXPECT_TRUE(db_->Set(*t3, *doc, "Body", Value::Str("x")).ok());
  ASSERT_TRUE(db_->Commit(*t3).ok());
}

TEST_F(IntegrationTest, LongDataRoundTripsThroughReopen) {
  ASSERT_TRUE(db_->CreateClass("Media", {},
                               {{"Name", Domain::String()},
                                {"Blob", Domain::String()}})
                  .ok());
  // ~1 MiB of "image" data: far beyond a page; exercises overflow chains
  // through the WAL (full images) and the heap.
  std::string blob;
  Random rng(9);
  for (int i = 0; i < 1 << 20; ++i) {
    blob.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  auto t = db_->Begin();
  auto oid = db_->Insert(*t, "Media", {{"Name", Value::Str("scan")},
                                       {"Blob", Value::Str(blob)}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db_->Commit(*t).ok());
  Reopen();

  auto t2 = db_->Begin();
  auto obj = db_->Get(*t2, *oid);
  ASSERT_TRUE(obj.ok());
  ClassId media = *db_->FindClass("Media");
  AttrId blob_attr = (*db_->catalog().ResolveAttr(media, "Blob"))->id;
  EXPECT_EQ(obj->Get(blob_attr).as_string(), blob);
  ASSERT_TRUE(db_->Commit(*t2).ok());
}

TEST_F(IntegrationTest, NestedIndexSurvivesReopenAndStaysMaintained) {
  ASSERT_TRUE(db_->CreateClass("Maker", {}, {{"City", Domain::String()}})
                  .ok());
  ClassId maker = *db_->FindClass("Maker");
  ASSERT_TRUE(db_->CreateClass("Widget", {},
                               {{"MadeBy", Domain::Ref(maker)}})
                  .ok());
  ClassId widget = *db_->FindClass("Widget");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, widget,
                               {"MadeBy", "City"})
                  .ok());
  auto t = db_->Begin();
  auto m = db_->Insert(*t, "Maker", {{"City", Value::Str("Austin")}});
  auto w = db_->Insert(*t, "Widget", {{"MadeBy", Value::Ref(*m)}});
  ASSERT_TRUE(m.ok() && w.ok());
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(db_->Close().ok());
  Reopen();

  QueryStats stats;
  auto hits = db_->ExecuteOql("select Widget where MadeBy.City = 'Austin'",
                              &stats);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Oid>{*w});
  EXPECT_TRUE(stats.used_index);
  // Maintenance continues post-reopen: move the maker.
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->Set(*t2, *m, "City", Value::Str("Dallas")).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  hits = db_->ExecuteOql("select Widget where MadeBy.City = 'Austin'");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
  hits = db_->ExecuteOql("select Widget where MadeBy.City = 'Dallas'");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Oid>{*w});
}

TEST_F(IntegrationTest, SmallBufferPoolEndToEnd) {
  // The whole stack working through a 16-page pool: evictions everywhere.
  Reopen(/*pool_pages=*/16);
  ASSERT_TRUE(db_->CreateClass("Row", {},
                               {{"N", Domain::Int()},
                                {"Pad", Domain::String()}})
                  .ok());
  auto t = db_->Begin();
  std::vector<Oid> oids;
  const std::string pad(200, 'x');
  for (int i = 0; i < 2000; ++i) {
    auto oid = db_->Insert(*t, "Row", {{"N", Value::Int(i)},
                                       {"Pad", Value::Str(pad)}});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    oids.push_back(*oid);
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  EXPECT_GT(db_->buffer_pool().stats().evictions, 0u);
  auto hits = db_->ExecuteOql("select Row where N >= 1990");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 10u);
  ASSERT_TRUE(db_->Close().ok());
  Reopen(/*pool_pages=*/16);
  auto n = db_->store().CountClass(*db_->FindClass("Row"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2000u);
}

TEST_F(IntegrationTest, RulesOverRecoveredExtent) {
  ASSERT_TRUE(db_->CreateClass("Node", {},
                               {{"Next", Domain::Ref(kRootClassId)}})
                  .ok());
  auto t = db_->Begin();
  auto a = db_->Insert(*t, "Node", {});
  auto b = db_->Insert(*t, "Node", {});
  auto c = db_->Insert(*t, "Node", {});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(db_->Set(*t, *a, "Next", Value::Ref(*b)).ok());
  ASSERT_TRUE(db_->Set(*t, *b, "Next", Value::Ref(*c)).ok());
  ASSERT_TRUE(db_->Commit(*t).ok());
  Reopen();  // crash-recover

  RuleEngine& re = db_->rules();
  ASSERT_TRUE(re.ImportExtent("next", *db_->FindClass("Node"), {"Next"})
                  .ok());
  RAtom base_head{"reach", {RTerm::Var("X"), RTerm::Var("Y")}, false};
  RAtom base_body{"next", {RTerm::Var("X"), RTerm::Var("Y")}, false};
  ASSERT_TRUE(re.AddRule(Rule{base_head, {base_body}}).ok());
  RAtom rec_head{"reach", {RTerm::Var("X"), RTerm::Var("Z")}, false};
  RAtom rec_b1{"next", {RTerm::Var("X"), RTerm::Var("Y")}, false};
  RAtom rec_b2{"reach", {RTerm::Var("Y"), RTerm::Var("Z")}, false};
  ASSERT_TRUE(re.AddRule(Rule{rec_head, {rec_b1, rec_b2}}).ok());
  ASSERT_TRUE(re.ForwardChain().ok());
  RAtom goal{"reach",
             {RTerm::Const(Value::Ref(*a)), RTerm::Const(Value::Ref(*c))},
             false};
  auto m = re.Match(goal);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->empty());
}

}  // namespace
}  // namespace kimdb

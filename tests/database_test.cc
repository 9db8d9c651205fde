#include <gtest/gtest.h>

#include <algorithm>

#include "core/database.h"

namespace kimdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/kimdb_db_" +
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

  void Reopen() {
    db_.reset();
    DatabaseOptions opts;
    opts.path = base_;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void BuildVehicleSchema() {
    ASSERT_TRUE(db_->CreateClass("Company", {},
                                 {{"Name", Domain::String()},
                                  {"Location", Domain::String()}})
                    .ok());
    ClassId company = *db_->FindClass("Company");
    ASSERT_TRUE(db_->CreateClass("Vehicle", {},
                                 {{"Weight", Domain::Int()},
                                  {"Manufacturer", Domain::Ref(company)}})
                    .ok());
    ASSERT_TRUE(db_->CreateClass("Truck", {"Vehicle"},
                                 {{"Payload", Domain::Int()}})
                    .ok());
  }

  Oid MustInsert(uint64_t txn, std::string_view cls,
                 std::vector<std::pair<std::string, Value>> attrs) {
    auto oid = db_->Insert(txn, cls, attrs);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return *oid;
  }

  std::string base_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, EndToEndInsertQueryCommit) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  Oid gm = MustInsert(*t, "Company", {{"Name", Value::Str("GM")},
                                      {"Location", Value::Str("Detroit")}});
  MustInsert(*t, "Truck", {{"Weight", Value::Int(9000)},
                           {"Manufacturer", Value::Ref(gm)}});
  MustInsert(*t, "Vehicle", {{"Weight", Value::Int(1000)},
                             {"Manufacturer", Value::Ref(gm)}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto hits = db_->ExecuteOql(
      "select Vehicle where Weight > 7500 and "
      "Manufacturer.Location = 'Detroit'");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(DatabaseTest, DataSurvivesCleanReopen) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid gm = MustInsert(*t, "Company", {{"Name", Value::Str("GM")}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(db_->Close().ok());

  Reopen();
  EXPECT_TRUE(db_->FindClass("Truck").ok());
  auto t2 = db_->Begin();
  auto obj = db_->Get(*t2, gm);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  ASSERT_TRUE(db_->Commit(*t2).ok());
  auto hits = db_->ExecuteOql("select Company where Name = 'GM'");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Oid>{gm});
}

TEST_F(DatabaseTest, CommittedDataSurvivesCrashReopen) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid gm = MustInsert(*t, "Company", {{"Name", Value::Str("GM")}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  // Uncommitted work from a second transaction.
  auto t2 = db_->Begin();
  Oid ghost = MustInsert(*t2, "Company", {{"Name", Value::Str("Ghost")}});
  // "Crash": drop the Database without Close/Commit. The destructor's
  // best-effort close cannot checkpoint (active txn) but flushes pages;
  // recovery must still undo the uncommitted insert via the WAL.
  Reopen();
  EXPECT_GE(db_->recovery_stats().committed_txns, 1u);
  auto t3 = db_->Begin();
  EXPECT_TRUE(db_->Get(*t3, gm).ok());
  EXPECT_TRUE(db_->Get(*t3, ghost).status().IsNotFound());
  ASSERT_TRUE(db_->Commit(*t3).ok());
}

TEST_F(DatabaseTest, AbortRollsBack) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid gm = MustInsert(*t, "Company", {{"Name", Value::Str("GM")}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->Set(*t2, gm, "Name", Value::Str("Mutated")).ok());
  Oid extra = MustInsert(*t2, "Company", {{"Name", Value::Str("Extra")}});
  ASSERT_TRUE(db_->Abort(*t2).ok());

  auto t3 = db_->Begin();
  EXPECT_EQ(db_->Get(*t3, gm)
                ->Get((*db_->catalog().ResolveAttr(gm.class_id(), "Name"))
                          ->id)
                .as_string(),
            "GM");
  EXPECT_TRUE(db_->Get(*t3, extra).status().IsNotFound());
  ASSERT_TRUE(db_->Commit(*t3).ok());
}

TEST_F(DatabaseTest, IndexDefinitionsPersistAcrossReopen) {
  BuildVehicleSchema();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy, vehicle,
                               {"Weight"})
                  .ok());
  auto t = db_->Begin();
  Oid v = MustInsert(*t, "Truck", {{"Weight", Value::Int(4200)}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(db_->Close().ok());

  Reopen();
  // The reopened database rebuilt the index; the planner uses it.
  auto plan = db_->ExplainOql("select Vehicle where Weight = 4200");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->index_scan);
  QueryStats stats;
  auto hits = db_->ExecuteOql("select Vehicle where Weight = 4200", &stats);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, std::vector<Oid>{v});
  EXPECT_TRUE(stats.used_index);
}

TEST_F(DatabaseTest, ViewsPersistAcrossReopen) {
  BuildVehicleSchema();
  Query q;
  q.target = *db_->FindClass("Vehicle");
  q.predicate = Expr::Gt(Expr::Path({"Weight"}),
                         Expr::Const(Value::Int(5000)));
  ASSERT_TRUE(db_->views().DefineView("Heavy", q).ok());
  auto t = db_->Begin();
  Oid heavy = MustInsert(*t, "Truck", {{"Weight", Value::Int(9000)}});
  MustInsert(*t, "Vehicle", {{"Weight", Value::Int(100)}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(db_->Close().ok());

  Reopen();
  auto hits = db_->views().QueryView("Heavy");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(*hits, std::vector<Oid>{heavy});
}

TEST_F(DatabaseTest, SchemaEvolutionEndToEnd) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid v = MustInsert(*t, "Vehicle", {{"Weight", Value::Int(1000)}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  ASSERT_TRUE(db_->AddAttribute(
                    "Vehicle", {"Color", Domain::String(),
                                Value::Str("black")})
                  .ok());
  ASSERT_TRUE(db_->RenameAttribute("Vehicle", "Weight", "GrossWeight").ok());
  ASSERT_TRUE(db_->Close().ok());

  Reopen();
  auto t2 = db_->Begin();
  auto obj = db_->Get(*t2, v);
  ASSERT_TRUE(obj.ok());
  ClassId vehicle = *db_->FindClass("Vehicle");
  AttrId color = (*db_->catalog().ResolveAttr(vehicle, "Color"))->id;
  AttrId gw = (*db_->catalog().ResolveAttr(vehicle, "GrossWeight"))->id;
  EXPECT_EQ(obj->Get(color).as_string(), "black");  // lazy default
  EXPECT_EQ(obj->Get(gw).as_int(), 1000);           // id stable across rename
  ASSERT_TRUE(db_->Commit(*t2).ok());
  auto hits = db_->ExecuteOql("select Vehicle where GrossWeight = 1000");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(DatabaseTest, MethodsAndMessagePassing) {
  BuildVehicleSchema();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->catalog().AddMethod(vehicle, {"Describe", 0}).ok());
  ASSERT_TRUE(db_->methods()
                  .Register(db_->catalog(), vehicle, "Describe",
                            [](MethodContext& ctx,
                               const std::vector<Value>&) {
                              return Value::Str(
                                  "object " + ctx.self->oid().ToString());
                            })
                  .ok());
  auto t = db_->Begin();
  Oid v = MustInsert(*t, "Truck", {{"Weight", Value::Int(1)}});
  auto reply = db_->Send(*t, v, "Describe");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->as_string(), "object " + v.ToString());
  ASSERT_TRUE(db_->Commit(*t).ok());
}

TEST_F(DatabaseTest, ReleasedVersionCannotBeUpdated) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid v = MustInsert(*t, "Vehicle", {{"Weight", Value::Int(1)}});
  ASSERT_TRUE(db_->versions().MakeVersionable(*t, v).ok());
  ASSERT_TRUE(db_->versions().Release(*t, v).ok());
  EXPECT_TRUE(db_->Set(*t, v, "Weight", Value::Int(2))
                  .IsFailedPrecondition());
  // Deriving and updating the new version works.
  auto v2 = db_->versions().DeriveVersion(*t, v);
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(db_->Set(*t, *v2, "Weight", Value::Int(2)).ok());
  ASSERT_TRUE(db_->Commit(*t).ok());
}

TEST_F(DatabaseTest, CheckedOutObjectNotWritableInPlace) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid v = MustInsert(*t, "Vehicle", {{"Weight", Value::Int(1)}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto priv = PrivateDb::Create("alice", &db_->catalog());
  ASSERT_TRUE(priv.ok());
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->checkout().Checkout(*t2, priv->get(), v).ok());
  EXPECT_TRUE(db_->Set(*t2, v, "Weight", Value::Int(2)).IsBusy());
  EXPECT_TRUE(db_->Delete(*t2, v).IsBusy());
  ASSERT_TRUE(db_->checkout().Checkin(*t2, priv->get(), v).ok());
  EXPECT_TRUE(db_->Set(*t2, v, "Weight", Value::Int(2)).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
}

TEST_F(DatabaseTest, CheckedOutPrivateDbOutlivesDatabase) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid v = MustInsert(*t, "Vehicle", {{"Weight", Value::Int(1)}});
  Oid w = MustInsert(*t, "Vehicle", {{"Weight", Value::Int(2)}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto priv = PrivateDb::Create("alice", &db_->catalog());
  ASSERT_TRUE(priv.ok());
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->checkout().Checkout(*t2, priv->get(), v).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  ASSERT_TRUE((*priv)->has_pinned_snapshot());
  // A commit after the checkout leaves a version chain that only the
  // private database's snapshot keeps alive, so its release prunes.
  auto t3 = db_->Begin();
  ASSERT_TRUE(db_->Set(*t3, w, "Weight", Value::Int(3)).ok());
  ASSERT_TRUE(db_->Commit(*t3).ok());

  // The shared database goes first; the workspace's snapshot still owns
  // the version table it releases into (run under KIMDB_SANITIZE=address).
  db_.reset();
  ASSERT_TRUE((*priv)->has_pinned_snapshot());
  priv->reset();
}

TEST_F(DatabaseTest, InMemoryDatabaseWorks) {
  DatabaseOptions opts;
  opts.in_memory = true;
  auto mem = Database::Open(opts);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE((*mem)->CreateClass("Thing", {}, {{"x", Domain::Int()}}).ok());
  auto t = (*mem)->Begin();
  auto oid = (*mem)->Insert(*t, "Thing", {{"x", Value::Int(42)}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE((*mem)->Commit(*t).ok());
  auto hits = (*mem)->ExecuteOql("select Thing where x = 42");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(DatabaseTest, DropClassRequiresEmptyExtent) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  Oid v = MustInsert(*t, "Truck", {{"Weight", Value::Int(1)}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  EXPECT_TRUE(db_->DropClass("Truck").IsFailedPrecondition());
  auto t2 = db_->Begin();
  ASSERT_TRUE(db_->Delete(*t2, v).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  EXPECT_TRUE(db_->DropClass("Truck").ok());
  EXPECT_TRUE(db_->FindClass("Truck").status().IsNotFound());
}

TEST_F(DatabaseTest, CheckpointTruncatesWal) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  MustInsert(*t, "Company", {{"Name", Value::Str("X")}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  // After a checkpoint, reopening replays nothing but data is intact.
  ASSERT_TRUE(db_->Close().ok());
  Reopen();
  EXPECT_EQ(db_->recovery_stats().redone, 0u);
  auto hits = db_->ExecuteOql("select Company");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
}

TEST_F(DatabaseTest, CheckpointRefusedDuringTransaction) {
  BuildVehicleSchema();
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db_->Checkpoint().IsFailedPrecondition());
  ASSERT_TRUE(db_->Commit(*t).ok());
  EXPECT_TRUE(db_->Checkpoint().ok());
}

}  // namespace
}  // namespace kimdb

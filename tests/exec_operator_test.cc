#include <gtest/gtest.h>

#include <chrono>

#include "exec/operator.h"
#include "exec/operators.h"
#include "index/index_manager.h"
#include "lang/parser.h"
#include "object/object_store.h"
#include "query/query_engine.h"
#include "storage/disk_manager.h"

namespace kimdb {
namespace {

// Exercises the Volcano operator layer directly and through the query
// engine's lowering. The schema carries the paper's §3.2 query one level
// deeper than query_test.cc -- Vehicle.Manufacturer -> Company.Headquarters
// -> Site.City -- so EXPLAIN shows a genuinely nested path.
class ExecOperatorTest : public ::testing::Test {
 protected:
  ExecOperatorTest() : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 512) {
    site_ = *cat_.CreateClass("Site", {}, {{"City", Domain::String()}});
    company_ = *cat_.CreateClass(
        "Company", {},
        {{"Name", Domain::String()}, {"Headquarters", Domain::Ref(site_)}});
    vehicle_ = *cat_.CreateClass(
        "Vehicle", {},
        {{"Weight", Domain::Int()}, {"Manufacturer", Domain::Ref(company_)}});
    truck_ = *cat_.CreateClass("Truck", {vehicle_},
                               {{"Payload", Domain::Int()}});
    empty_ = *cat_.CreateClass("Ghost", {}, {{"X", Domain::Int()}});

    auto store = ObjectStore::Open(&bp_, &cat_, nullptr);
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
    im_ = std::make_unique<IndexManager>(store_.get());
    engine_ = std::make_unique<QueryEngine>(store_.get(), im_.get());

    detroit_ = Put(site_, {{"City", Value::Str("Detroit")}});
    nagoya_ = Put(site_, {{"City", Value::Str("Nagoya")}});
    gm_ = Put(company_, {{"Name", Value::Str("GM")},
                         {"Headquarters", Value::Ref(detroit_)}});
    toyota_ = Put(company_, {{"Name", Value::Str("Toyota")},
                             {"Headquarters", Value::Ref(nagoya_)}});

    heavy_gm_truck_ = Put(truck_, {{"Weight", Value::Int(9000)},
                                   {"Payload", Value::Int(4000)},
                                   {"Manufacturer", Value::Ref(gm_)}});
    light_gm_vehicle_ = Put(vehicle_, {{"Weight", Value::Int(2000)},
                                       {"Manufacturer", Value::Ref(gm_)}});
    heavy_toyota_truck_ = Put(truck_, {{"Weight", Value::Int(8000)},
                                       {"Manufacturer", Value::Ref(toyota_)}});
    light_toyota_vehicle_ = Put(vehicle_, {{"Weight", Value::Int(1500)},
                                           {"Manufacturer", Value::Ref(toyota_)}});
  }

  Oid Put(ClassId cls, std::vector<std::pair<std::string, Value>> attrs) {
    auto obj = BuildObject(cat_, cls, attrs);
    EXPECT_TRUE(obj.ok()) << obj.status().ToString();
    auto oid = store_->Insert(1, cls, std::move(*obj));
    EXPECT_TRUE(oid.ok());
    return *oid;
  }

  Query HeavyQuery() const {
    Query q;
    q.target = vehicle_;
    q.predicate = Expr::Gt(Expr::Path({"Weight"}),
                           Expr::Const(Value::Int(5000)));
    return q;
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
  Catalog cat_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<IndexManager> im_;
  std::unique_ptr<QueryEngine> engine_;
  ClassId site_, company_, vehicle_, truck_, empty_;
  Oid detroit_, nagoya_, gm_, toyota_;
  Oid heavy_gm_truck_, light_gm_vehicle_, heavy_toyota_truck_,
      light_toyota_vehicle_;
};

// --- per-operator behavior --------------------------------------------------

TEST_F(ExecOperatorTest, ExtentScanOverEmptyExtent) {
  exec::ExecContext ctx(&bp_);
  exec::ExtentScan scan(store_.get(), empty_, "Ghost");
  auto oids = exec::CollectOids(scan, &ctx);
  ASSERT_TRUE(oids.ok()) << oids.status().ToString();
  EXPECT_TRUE(oids->empty());
  EXPECT_EQ(ctx.objects_scanned.load(), 0u);
}

TEST_F(ExecOperatorTest, ExtentScanProducesMaterializedObjects) {
  exec::ExecContext ctx(&bp_);
  exec::ExtentScan scan(store_.get(), truck_, "Truck");
  size_t rows = 0;
  Status st = exec::ForEachRowBatched(scan, &ctx, [&](exec::Row& row) {
    EXPECT_TRUE(row.obj.has_value());
    EXPECT_NE(row.oid, kNilOid);
    ++rows;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(ctx.objects_scanned.load(), 2u);
}

TEST_F(ExecOperatorTest, FilterRejectingEverythingEvaluatesEveryRow) {
  exec::ExecContext ctx(&bp_);
  auto scan = std::make_unique<exec::ExtentScan>(store_.get(), vehicle_,
                                                 "Vehicle");
  exec::Filter filter(
      std::move(scan), store_.get(),
      [](const Object&, exec::ExecContext* c) -> Result<bool> {
        c->predicates_evaluated.fetch_add(1, std::memory_order_relaxed);
        return false;
      },
      "false");
  auto oids = exec::CollectOids(filter, &ctx);
  ASSERT_TRUE(oids.ok()) << oids.status().ToString();
  EXPECT_TRUE(oids->empty());
  EXPECT_EQ(ctx.predicates_evaluated.load(), 2u);  // the 2 base Vehicles
}

TEST_F(ExecOperatorTest, BudgetExceededSerialScan) {
  exec::ExecContext ctx(&bp_);
  ctx.set_budget(std::chrono::nanoseconds(0));
  auto r = engine_->Execute(HeavyQuery(), &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
}

TEST_F(ExecOperatorTest, CancellationStopsQuery) {
  exec::ExecContext ctx(&bp_);
  ctx.Cancel();
  auto r = engine_->Execute(HeavyQuery(), &ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded());
}

// --- unified stats ----------------------------------------------------------

TEST_F(ExecOperatorTest, ScanStatsParity) {
  exec::ExecContext ctx(&bp_);
  auto r = engine_->Execute(HeavyQuery(), &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  QueryStats stats = StatsFromExecContext(ctx);
  EXPECT_EQ(stats.objects_scanned, 4u);       // whole Vehicle hierarchy
  EXPECT_EQ(stats.predicates_evaluated, 4u);  // one Matches per candidate
  EXPECT_FALSE(stats.used_index);
  EXPECT_EQ(stats.index_candidates, 0u);
}

TEST_F(ExecOperatorTest, IndexStatsParity) {
  ASSERT_TRUE(im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                               {"Weight"})
                  .ok());
  exec::ExecContext ctx(&bp_);
  auto r = engine_->Execute(HeavyQuery(), &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  QueryStats stats = StatsFromExecContext(ctx);
  EXPECT_TRUE(stats.used_index);
  EXPECT_EQ(stats.objects_scanned, 0u);  // no extent touched
  EXPECT_EQ(stats.index_candidates, 2u);
  EXPECT_EQ(ctx.index_probes.load(), 1u);
}

TEST_F(ExecOperatorTest, PagesHitMissDeltaIsPerQuery) {
  exec::ExecContext ctx(&bp_);
  EXPECT_EQ(ctx.pages_hit(), 0u);
  auto r = engine_->Execute(HeavyQuery(), &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(ctx.pages_hit() + ctx.pages_missed(), 0u);
}

// --- EXPLAIN ----------------------------------------------------------------

TEST_F(ExecOperatorTest, ExplainNestedQueryShowsLoweredTree) {
  lang::Parser parser(&cat_);
  auto stmt = parser.ParseStatement(
      "explain select Vehicle where Weight > 7500 "
      "and Manufacturer.Headquarters.City = 'Detroit'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->explain);

  auto tree = engine_->Explain(stmt->query);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_NE(tree->find("Filter("), std::string::npos) << *tree;
  EXPECT_NE(tree->find("HierarchyScan(Vehicle)"), std::string::npos) << *tree;
  EXPECT_NE(tree->find("ExtentScan(Truck)"), std::string::npos) << *tree;

  // The plan's ToString renders the same tree Execute runs.
  auto plan = engine_->Plan(stmt->query);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->ToString(), *tree);
}

TEST_F(ExecOperatorTest, ExplainSwitchesToIndexScanWithNestedIndex) {
  ASSERT_TRUE(im_->CreateIndex(IndexKind::kNested, vehicle_,
                               {"Manufacturer", "Headquarters", "City"})
                  .ok());
  lang::Parser parser(&cat_);
  auto stmt = parser.ParseStatement(
      "explain select Vehicle where Weight > 7500 "
      "and Manufacturer.Headquarters.City = 'Detroit'");
  ASSERT_TRUE(stmt.ok());
  auto tree = engine_->Explain(stmt->query);
  ASSERT_TRUE(tree.ok());
  EXPECT_NE(tree->find("IndexScan(path=Manufacturer.Headquarters.City"),
            std::string::npos)
      << *tree;
  EXPECT_NE(tree->find("Filter("), std::string::npos) << *tree;  // residual

  // And the index plan still returns the right answer.
  auto r = engine_->Execute(stmt->query, static_cast<QueryStats*>(nullptr));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, std::vector<Oid>{heavy_gm_truck_});
}

TEST_F(ExecOperatorTest, PlainSelectStatementHasNoExplainFlag) {
  lang::Parser parser(&cat_);
  auto stmt = parser.ParseStatement("select Vehicle where Weight > 7500");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(stmt->explain);
}

// --- trace buffer -----------------------------------------------------------

TEST_F(ExecOperatorTest, TraceBufferRecordsOperatorEvents) {
  ASSERT_TRUE(im_->CreateIndex(IndexKind::kClassHierarchy, vehicle_,
                               {"Weight"})
                  .ok());
  exec::ExecContext ctx(&bp_);
  ctx.EnableTrace();
  auto r = engine_->Execute(HeavyQuery(), &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(ctx.TraceLines().empty());
}

}  // namespace
}  // namespace kimdb

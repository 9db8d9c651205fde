#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <utility>

#include "rel/query_ops.h"
#include "rel/relation.h"
#include "storage/disk_manager.h"

namespace kimdb {
namespace {

using rel::ColumnDef;
using rel::Relation;
using rel::Tuple;

class RelationTest : public ::testing::Test {
 protected:
  RelationTest()
      : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 256) {}

  std::unique_ptr<Relation> MakeCompanies() {
    auto r = Relation::Create(&bp_, "company",
                              {{"id", Value::Kind::kInt},
                               {"name", Value::Kind::kString},
                               {"location", Value::Kind::kString}});
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }

  std::unique_ptr<Relation> MakeVehicles() {
    auto r = Relation::Create(&bp_, "vehicle",
                              {{"id", Value::Kind::kInt},
                               {"weight", Value::Kind::kInt},
                               {"company_id", Value::Kind::kInt}});
    EXPECT_TRUE(r.ok());
    return std::move(*r);
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
};

TEST_F(RelationTest, InsertGetRoundTrip) {
  auto companies = MakeCompanies();
  auto rid = companies->Insert(
      {Value::Int(1), Value::Str("GM"), Value::Str("Detroit")});
  ASSERT_TRUE(rid.ok());
  auto t = companies->Get(*rid);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)[1].as_string(), "GM");
  EXPECT_EQ(companies->num_tuples(), 1u);
}

TEST_F(RelationTest, SchemaChecked) {
  auto companies = MakeCompanies();
  EXPECT_TRUE(companies->Insert({Value::Int(1)}).status()
                  .IsInvalidArgument());  // arity
  EXPECT_TRUE(companies
                  ->Insert({Value::Str("x"), Value::Str("y"),
                            Value::Str("z")})
                  .status()
                  .IsInvalidArgument());  // type
  // Nulls allowed.
  EXPECT_TRUE(companies->Insert({Value::Int(2), Value::Null(),
                                 Value::Null()})
                  .ok());
}

TEST_F(RelationTest, UpdateDeleteMaintainIndexes) {
  auto companies = MakeCompanies();
  auto idx = companies->CreateIndex("location");
  ASSERT_TRUE(idx.ok());
  auto rid = companies->Insert(
      {Value::Int(1), Value::Str("GM"), Value::Str("Detroit")});
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ((*idx)->LookupEq(Value::Str("Detroit")).size(), 1u);
  ASSERT_TRUE(companies
                  ->Update(*rid, {Value::Int(1), Value::Str("GM"),
                                  Value::Str("Austin")})
                  .ok());
  EXPECT_TRUE((*idx)->LookupEq(Value::Str("Detroit")).empty());
  EXPECT_EQ((*idx)->LookupEq(Value::Str("Austin")).size(), 1u);
  ASSERT_TRUE(companies->Delete(*rid).ok());
  EXPECT_TRUE((*idx)->LookupEq(Value::Str("Austin")).empty());
}

TEST_F(RelationTest, SelectEqUsesIndexOrScan) {
  auto companies = MakeCompanies();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(companies
                    ->Insert({Value::Int(i), Value::Str("c"),
                              Value::Str(i % 2 ? "Detroit" : "Austin")})
                    .ok());
  }
  int hits = 0;
  ASSERT_TRUE(rel::SelectEq(*companies, "location", Value::Str("Detroit"),
                            [&](const Tuple&) {
                              ++hits;
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(hits, 25);
  // Same with an index.
  ASSERT_TRUE(companies->CreateIndex("location").ok());
  hits = 0;
  ASSERT_TRUE(rel::SelectEq(*companies, "location", Value::Str("Detroit"),
                            [&](const Tuple&) {
                              ++hits;
                              return Status::OK();
                            })
                  .ok());
  EXPECT_EQ(hits, 25);
}

TEST_F(RelationTest, JoinsAgree) {
  auto companies = MakeCompanies();
  auto vehicles = MakeVehicles();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(companies
                    ->Insert({Value::Int(i), Value::Str("c"),
                              Value::Str(i < 3 ? "Detroit" : "Other")})
                    .ok());
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(vehicles
                    ->Insert({Value::Int(i), Value::Int(i * 500),
                              Value::Int(i % 10)})
                    .ok());
  }
  auto run = [&](auto&& join_fn) {
    std::multiset<int64_t> joined_vehicle_ids;
    Status st = join_fn([&](const Tuple& v, const Tuple& c) {
      EXPECT_EQ(v[2].as_int(), c[0].as_int());
      joined_vehicle_ids.insert(v[0].as_int());
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return joined_vehicle_ids;
  };
  auto nl = run([&](const rel::JoinConsumer& fn) {
    return rel::NestedLoopJoin(*vehicles, *companies, "company_id", "id",
                               fn);
  });
  auto hash = run([&](const rel::JoinConsumer& fn) {
    return rel::HashJoin(*vehicles, *companies, "company_id", "id", fn);
  });
  ASSERT_TRUE(companies->CreateIndex("id").ok());
  auto indexed = run([&](const rel::JoinConsumer& fn) {
    return rel::IndexJoin(*vehicles, *companies, "company_id", "id", fn);
  });
  EXPECT_EQ(nl.size(), 40u);  // every vehicle joins exactly one company
  EXPECT_EQ(nl, hash);
  EXPECT_EQ(nl, indexed);
}

// 300 left rows with 3 right matches each: the joins emit 900 pairs, so
// batch boundaries fall inside one left row's matches and the left side
// spans two batches of its own.
TEST_F(RelationTest, JoinsAgreeAcrossBatchBoundaries) {
  auto companies = MakeCompanies();
  auto vehicles = MakeVehicles();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(companies
                    ->Insert({Value::Int(i % 10),
                              Value::Str("c" + std::to_string(i)),
                              Value::Str("Detroit")})
                    .ok());
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        vehicles->Insert({Value::Int(i), Value::Int(i), Value::Int(i % 10)})
            .ok());
  }
  using Pair = std::pair<int64_t, std::string>;
  auto run = [&](auto&& join_fn) {
    std::multiset<Pair> pairs;
    exec::ExecContext ctx;
    Status st = join_fn(
        [&](const Tuple& v, const Tuple& c) {
          EXPECT_EQ(v[2].as_int(), c[0].as_int());
          pairs.insert({v[0].as_int(), c[1].as_string()});
          return Status::OK();
        },
        &ctx);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return pairs;
  };
  auto nl = run([&](const rel::JoinConsumer& fn, exec::ExecContext* ctx) {
    return rel::NestedLoopJoin(*vehicles, *companies, "company_id", "id", fn,
                               ctx);
  });
  auto hash = run([&](const rel::JoinConsumer& fn, exec::ExecContext* ctx) {
    return rel::HashJoin(*vehicles, *companies, "company_id", "id", fn, ctx);
  });
  ASSERT_TRUE(companies->CreateIndex("id").ok());
  auto indexed = run([&](const rel::JoinConsumer& fn, exec::ExecContext* ctx) {
    return rel::IndexJoin(*vehicles, *companies, "company_id", "id", fn, ctx);
  });
  EXPECT_EQ(nl.size(), 900u);
  EXPECT_EQ(std::set<Pair>(nl.begin(), nl.end()).size(), 900u);
  EXPECT_EQ(nl, hash);
  EXPECT_EQ(nl, indexed);
}

TEST_F(RelationTest, ZeroBudgetStopsSelectAndJoin) {
  auto companies = MakeCompanies();
  auto vehicles = MakeVehicles();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(companies
                    ->Insert({Value::Int(i), Value::Str("c"),
                              Value::Str("Detroit")})
                    .ok());
    ASSERT_TRUE(
        vehicles->Insert({Value::Int(i), Value::Int(i), Value::Int(i)}).ok());
  }
  int emitted = 0;
  exec::ExecContext ctx;
  ctx.set_budget(std::chrono::nanoseconds(0));
  Status st = rel::Select(
      *companies, [](const Tuple&) { return true; },
      [&](const Tuple&) {
        ++emitted;
        return Status::OK();
      },
      &ctx);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  st = rel::HashJoin(
      *vehicles, *companies, "company_id", "id",
      [&](const Tuple&, const Tuple&) {
        ++emitted;
        return Status::OK();
      },
      &ctx);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_EQ(emitted, 0);
}

TEST_F(RelationTest, IndexJoinRequiresIndex) {
  auto companies = MakeCompanies();
  auto vehicles = MakeVehicles();
  EXPECT_TRUE(rel::IndexJoin(*vehicles, *companies, "company_id", "id",
                             [](const Tuple&, const Tuple&) {
                               return Status::OK();
                             })
                  .IsFailedPrecondition());
}

TEST_F(RelationTest, RangeLookup) {
  auto vehicles = MakeVehicles();
  auto idx = vehicles->CreateIndex("weight");
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(vehicles
                    ->Insert({Value::Int(i), Value::Int(i * 100),
                              Value::Int(0)})
                    .ok());
  }
  auto rids = (*idx)->LookupRange(Value::Int(500), true, Value::Int(900),
                                  false);
  EXPECT_EQ(rids.size(), 4u);  // 500,600,700,800
}

TEST_F(RelationTest, PackUnpackRecordId) {
  RecordId rid{12345, 678};
  EXPECT_EQ(rel::RelIndex::Unpack(rel::RelIndex::Pack(rid)), rid);
}

}  // namespace
}  // namespace kimdb

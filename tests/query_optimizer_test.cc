// Optimizer + batch execution regression tests.
//
// The planner prices every query: the scan plus one candidate per indexed
// path, each path's conjuncts folded into one key interval, with
// selectivities from fresh histograms or, without them, from defaults.
// Plan pins follow the bench shapes it must get right:
//   E2  -- class-hierarchy index equality lookup vs hierarchy scan
//   E3  -- nested-attribute index with a residual conjunct
//   E12 -- conjunctive OQL where an equality on a one-key path is worth
//          less than a tight range
//   query-mix -- a two-sided range over a class-hierarchy index
// plus stats-collection unit tests (live counts, analyze, drift),
// batch-at-a-time operator tests (boundaries, MVCC visibility under a
// concurrent writer, budget mid-batch), the same plan shapes pinned under
// an open snapshot with an uncommitted writer (index plans stay index
// plans; DESIGN.md §13), and index maintenance skipping updates that
// leave every indexed path alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/exec_context.h"
#include "object/mvcc.h"

namespace kimdb {
namespace {

class QueryOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/kimdb_opt_" +
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

  // E2/E12 shape: a two-level hierarchy with an integer Key and Weight.
  void BuildHierarchy() {
    ASSERT_TRUE(db_->CreateClass("Part", {},
                                 {{"Key", Domain::Int()},
                                  {"Weight", Domain::Int()}})
                    .ok());
    ASSERT_TRUE(db_->CreateClass("SubPart", {"Part"}, {}).ok());
  }

  // E3 shape: Vehicle -> Manufacturer(Company).Location nested path.
  void BuildNested() {
    ASSERT_TRUE(db_->CreateClass("Company", {},
                                 {{"Name", Domain::String()},
                                  {"Location", Domain::String()}})
                    .ok());
    ClassId company = *db_->FindClass("Company");
    ASSERT_TRUE(db_->CreateClass("Vehicle", {},
                                 {{"Weight", Domain::Int()},
                                  {"Manufacturer", Domain::Ref(company)}})
                    .ok());
  }

  Oid MustInsert(uint64_t txn, std::string_view cls,
                 std::vector<std::pair<std::string, Value>> attrs) {
    auto oid = db_->Insert(txn, cls, attrs);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return oid.ok() ? *oid : kNilOid;
  }

  std::vector<Oid> MustRun(std::string_view oql) {
    auto rows = db_->ExecuteOql(oql);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<Oid> out = rows.ok() ? *rows : std::vector<Oid>{};
    std::sort(out.begin(), out.end());
    return out;
  }

  // One query read at `snap`: the executed tree (EXPLAIN ANALYZE), the
  // rows of the index-aware engine, and the rows of an index-less engine
  // (the forced scan) at the same read timestamp -- both sorted.
  struct SnapshotRun {
    std::string tree;
    std::vector<Oid> indexed, scanned;
  };
  SnapshotRun RunAt(const Snapshot& snap, std::string_view oql) {
    SnapshotRun r;
    auto q = db_->parser().ParseQuery(oql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    if (!q.ok()) return r;
    exec::ExecContext actx(&db_->buffer_pool());
    actx.set_snapshot(snap.read_ts());
    auto tree = db_->query_engine().ExplainAnalyze(*q, &actx);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree.ok()) r.tree = *tree;
    exec::ExecContext ictx(&db_->buffer_pool());
    ictx.set_snapshot(snap.read_ts());
    auto rows = db_->query_engine().Execute(*q, &ictx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) r.indexed = *rows;
    QueryEngine scan_engine(&db_->store(), nullptr);
    exec::ExecContext sctx(&db_->buffer_pool());
    sctx.set_snapshot(snap.read_ts());
    auto scanned = scan_engine.Execute(*q, &sctx);
    EXPECT_TRUE(scanned.ok()) << scanned.status().ToString();
    if (scanned.ok()) r.scanned = *scanned;
    std::sort(r.indexed.begin(), r.indexed.end());
    std::sort(r.scanned.begin(), r.scanned.end());
    return r;
  }

  // Runs `q` through an index plan built by hand, whatever the planner
  // would price: the probe reads `key` over `index`'s path, and `residual`
  // re-checks the rest of the predicate.
  std::vector<Oid> RunIndexPlan(const Query& q, const IndexInfo& index,
                                Value key, ExprPtr residual,
                                exec::ExecContext* ctx) {
    QueryPlan plan;
    plan.index_scan = true;
    plan.index_id = index.id;
    plan.index_path = index.path;
    plan.eq_key = std::move(key);
    plan.residual = std::move(residual);
    auto root = db_->query_engine().Lower(q, plan);
    EXPECT_TRUE(root.ok()) << root.status().ToString();
    if (!root.ok()) return {};
    auto rows = exec::CollectOids(**root, ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? *rows : std::vector<Oid>{};
  }

  static void ExpectEstimatedIndexScan(const std::string& tree) {
    EXPECT_NE(tree.find("IndexScan("), std::string::npos) << tree;
    EXPECT_EQ(tree.find("ExtentScan("), std::string::npos) << tree;
    EXPECT_NE(tree.find("est_rows="), std::string::npos) << tree;
    EXPECT_NE(tree.find("est_cost="), std::string::npos) << tree;
  }

  std::string base_;
  std::unique_ptr<Database> db_;
};

// --- statistics collection --------------------------------------------------

TEST_F(QueryOptimizerTest, LiveCountTracksInsertAndDelete) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ClassId sub = *db_->FindClass("SubPart");
  EXPECT_EQ(db_->store().LiveCount(part), 0u);

  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 10; ++i) {
    oids.push_back(MustInsert(*t, "Part", {{"Key", Value::Int(i)}}));
  }
  MustInsert(*t, "SubPart", {{"Key", Value::Int(99)}});
  ASSERT_TRUE(db_->Commit(*t).ok());
  EXPECT_EQ(db_->store().LiveCount(part), 10u);
  EXPECT_EQ(db_->store().LiveCount(sub), 1u);

  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  ASSERT_TRUE(db_->Delete(*t2, oids[0]).ok());
  ASSERT_TRUE(db_->Delete(*t2, oids[1]).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());
  EXPECT_EQ(db_->store().LiveCount(part), 8u);
}

TEST_F(QueryOptimizerTest, AnalyzeInstallsStatsAndHistogram) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 200; ++i) {
    MustInsert(*t, "Part",
               {{"Key", Value::Int(i)}, {"Weight", Value::Int(i % 10)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  EXPECT_FALSE(db_->stats().Get(part).has_value() &&
               db_->stats().Get(part)->analyzed);
  ASSERT_TRUE(MustRun("analyze Part").empty());

  auto cs = db_->stats().Get(part);
  ASSERT_TRUE(cs.has_value());
  EXPECT_TRUE(cs->analyzed);
  EXPECT_TRUE(cs->Fresh());
  EXPECT_EQ(cs->live_objects, 200u);
  EXPECT_GT(cs->extent_pages, 0u);
  ASSERT_EQ(cs->path_hists.count("Key"), 1u);
  const EquiDepthHistogram& h = cs->path_hists.at("Key");
  EXPECT_EQ(h.total_entries, 200u);
  EXPECT_EQ(h.distinct_keys, 200u);
  // A point probe on a uniform domain is ~1/distinct, even out of range
  // (the estimate floors at one key's share rather than claiming zero).
  EXPECT_NEAR(h.SelectivityEq(Value::Int(100)), 1.0 / 200, 0.05);
  EXPECT_LE(h.SelectivityEq(Value::Int(-5)), 1.0 / 200 + 1e-9);
  // Half-range selectivity lands near one half.
  double half = h.SelectivityRange(std::nullopt, true, Value::Int(99), true);
  EXPECT_GT(half, 0.3);
  EXPECT_LT(half, 0.7);
}

TEST_F(QueryOptimizerTest, MutationDriftRetiresStats) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());
  ASSERT_TRUE(db_->stats().Get(part)->Fresh());

  // Fresh: the histogram prices the range at its ~10 keys.
  const char* range = "select Part where Key < 10";
  auto plan = db_->ExplainOql(range);
  ASSERT_TRUE(plan.ok());
  EXPECT_GE(plan->est_rows, 5u);
  EXPECT_LE(plan->est_rows, 20u);
  EXPECT_TRUE(db_->ExplainOql("select Part where Key = 5")->index_scan);

  // Drift past max(64, live/4): the stale snapshot is no longer read, so
  // the range is priced at the default third of the 180 live objects.
  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  for (int i = 0; i < 80; ++i) {
    MustInsert(*t2, "Part", {{"Key", Value::Int(1000 + i)}});
  }
  ASSERT_TRUE(db_->Commit(*t2).ok());
  EXPECT_FALSE(db_->stats().Get(part)->Fresh());
  auto stale = db_->ExplainOql(range);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->est_rows, 60u);
  // An equality on the indexed path prices at 1/keys: still an index plan.
  EXPECT_TRUE(db_->ExplainOql("select Part where Key = 5")->index_scan);

  // Re-analyzing restores histogram pricing.
  ASSERT_TRUE(MustRun("analyze Part").empty());
  auto fresh = db_->ExplainOql(range);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LE(fresh->est_rows, 20u);
}

TEST_F(QueryOptimizerTest, StaleStatsScheduleAutomaticReanalyze) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());
  ASSERT_TRUE(db_->stats().Get(part)->Fresh());
  uint64_t auto_runs_before =
      db_->metrics().GetCounter("optimizer.auto_analyze_runs")->value();

  // Drift past the freshness threshold, then plan: the stale snapshot
  // leaves this plan to the default selectivities AND hands the class to
  // the background re-analyzer.
  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  for (int i = 0; i < 80; ++i) {
    MustInsert(*t2, "Part", {{"Key", Value::Int(1000 + i)}});
  }
  ASSERT_TRUE(db_->Commit(*t2).ok());
  ASSERT_FALSE(db_->stats().Get(part)->Fresh());
  const char* range = "select Part where Key < 10";
  auto stale = db_->ExplainOql(range);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->est_rows, 60u);  // a third of 180

  // Without any manual `analyze` verb, the stats come back fresh and the
  // next plan prices from the new histogram again.
  db_->DrainAutoAnalyze();
  EXPECT_GE(db_->metrics().GetCounter("optimizer.auto_analyze_runs")->value(),
            auto_runs_before + 1);
  auto cs = db_->stats().Get(part);
  ASSERT_TRUE(cs.has_value());
  EXPECT_TRUE(cs->Fresh());
  EXPECT_EQ(cs->live_objects, 180u);
  auto replanned = db_->ExplainOql(range);
  ASSERT_TRUE(replanned.ok());
  EXPECT_LE(replanned->est_rows, 20u);
}

TEST_F(QueryOptimizerTest, StatsSurviveReopen) {
  BuildHierarchy();
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy,
                               *db_->FindClass("Part"), {"Key"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  Reopen();
  ClassId part = *db_->FindClass("Part");
  auto cs = db_->stats().Get(part);
  ASSERT_TRUE(cs.has_value());
  EXPECT_TRUE(cs->analyzed);
  EXPECT_EQ(cs->live_objects, 100u);
  EXPECT_EQ(cs->path_hists.count("Key"), 1u);
  auto plan = db_->ExplainOql("select Part where Key = 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->est_rows, 1u);  // the reopened histogram's 1/100
  EXPECT_TRUE(plan->index_scan);
}

// --- plan pins --------------------------------------------------------------

// E2 shape: selective equality through a class-hierarchy index must beat the
// hierarchy scan; an equality matching the whole extent must not.
TEST_F(QueryOptimizerTest, E2SelectiveEqPicksIndexUnselectivePicksScan) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 300; ++i) {
    // 290 distinct keys + 10 copies of key 7: both shapes in one extent.
    MustInsert(*t, i % 2 == 0 ? "Part" : "SubPart",
               {{"Key", Value::Int(i < 290 ? i + 100 : 7)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  auto selective = db_->ExplainOql("select Part where Key = 150");
  ASSERT_TRUE(selective.ok());
  EXPECT_TRUE(selective->index_scan);
  EXPECT_EQ(selective->index_path, std::vector<std::string>{"Key"});
  EXPECT_EQ(selective->plans_considered, 2u);  // scan + the CH index
  EXPECT_LE(selective->est_rows, 5u);

  // Verify the plan runs and is right, batched.
  EXPECT_EQ(MustRun("select Part where Key = 7").size(), 10u);
}

TEST_F(QueryOptimizerTest, WholeExtentEqualityPrefersScan) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 300; ++i) {
    // One key everywhere: the equality matches the whole extent.
    MustInsert(*t, "Part",
               {{"Key", Value::Int(7)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  // The residual conjunct breaks index-only coverage, so the index plan
  // would point-fetch all 300 objects -- costlier than one extent scan.
  const char* oql = "select Part where Key = 7 and Weight >= 0";
  auto plan = db_->ExplainOql(oql);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->index_scan);
  EXPECT_EQ(MustRun(oql).size(), 300u);
}

// E3 shape: nested-attribute index chosen, residual re-checked by a Filter,
// and EXPLAIN carries estimates on both operators.
TEST_F(QueryOptimizerTest, E3NestedIndexWithResidual) {
  BuildNested();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, vehicle,
                               {"Manufacturer", "Location"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> companies;
  for (int i = 0; i < 20; ++i) {
    companies.push_back(MustInsert(
        *t, "Company",
        {{"Name", Value::Str("C" + std::to_string(i))},
         {"Location", Value::Str(i == 0 ? "Detroit"
                                        : "City" + std::to_string(i))}}));
  }
  for (int i = 0; i < 200; ++i) {
    MustInsert(*t, "Vehicle",
               {{"Weight", Value::Int(i * 100)},
                {"Manufacturer", Value::Ref(companies[i % 20])}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Vehicle").empty());

  const char* oql =
      "select Vehicle where Manufacturer.Location = 'Detroit' "
      "and Weight > 7500";
  auto plan = db_->ExplainOql(oql);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->index_scan);
  EXPECT_EQ(plan->index_path,
            (std::vector<std::string>{"Manufacturer", "Location"}));
  ASSERT_TRUE(plan->residual != nullptr);
  EXPECT_NE(plan->residual->ToString().find("Weight"), std::string::npos);

  // The rendered plan shows estimates on root and leaf.
  std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find("IndexScan(path=Manufacturer.Location"),
            std::string::npos);
  EXPECT_NE(rendered.find("est_rows="), std::string::npos);
  EXPECT_NE(rendered.find("est_cost="), std::string::npos);

  // Detroit vehicles with Weight > 7500: i%20==0 and i*100>7500 -> i in
  // {80, 100, 120, 140, 160, 180}.
  EXPECT_EQ(MustRun(oql).size(), 6u);
}

// E12 shape: an equality is not worth probing when its path holds one key.
// Without statistics 1/keys already prices it at the whole extent; with
// them the tight range over Weight wins.
TEST_F(QueryOptimizerTest, E12CostModelOverridesEqPreference) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy, part, {"Weight"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 400; ++i) {
    // Key is constant (useless equality); Weight is uniform (tight range).
    MustInsert(*t, "Part",
               {{"Key", Value::Int(7)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  const char* oql = "select Part where Key = 7 and Weight < 10";

  // No stats: the Key index holds one key, so its equality prices at all
  // 400 fetches and never wins.
  auto unanalyzed = db_->ExplainOql(oql);
  ASSERT_TRUE(unanalyzed.ok());
  EXPECT_NE(unanalyzed->index_path, std::vector<std::string>{"Key"});
  EXPECT_EQ(unanalyzed->plans_considered, 3u);

  // Analyzed: the range over Weight touches ~10 objects, the equality
  // over Key touches all 400 -- the cheaper plan must win.
  ASSERT_TRUE(MustRun("analyze Part").empty());
  auto costed = db_->ExplainOql(oql);
  ASSERT_TRUE(costed.ok());
  EXPECT_TRUE(costed->index_scan);
  EXPECT_EQ(costed->index_path, std::vector<std::string>{"Weight"});
  EXPECT_EQ(costed->plans_considered, 3u);  // scan + Key index + Weight index

  EXPECT_EQ(MustRun(oql).size(), 10u);
}

// query-mix shape: a two-sided range over a class-hierarchy index on
// uniform weights. Both bounds fold into one key interval, priced by one
// histogram lookup, so every 50-wide window probes the index, and the
// estimate lands within one bucket of what the probe returns.
TEST_F(QueryOptimizerTest, TwoSidedRangePricesOneInterval) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy, part, {"Weight"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 4000; ++i) {
    MustInsert(*t, i % 2 == 0 ? "Part" : "SubPart",
               {{"Key", Value::Int(i % 7)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());
  const std::vector<uint64_t> buckets =
      db_->stats().Get(part)->path_hists.at("Weight").counts;
  const uint64_t bucket = *std::max_element(buckets.begin(), buckets.end());

  for (int a = 0; a <= 3950; a += 50) {
    std::string oql = "select Part where Weight >= " + std::to_string(a) +
                      " and Weight < " + std::to_string(a + 50);
    auto plan = db_->ExplainOql(oql);
    ASSERT_TRUE(plan.ok()) << oql;
    EXPECT_TRUE(plan->index_scan) << oql;
    EXPECT_EQ(plan->index_path, std::vector<std::string>{"Weight"}) << oql;
    ASSERT_TRUE(plan->lo.has_value() && plan->hi.has_value()) << oql;
    EXPECT_EQ(plan->lo->Compare(Value::Int(a)), 0) << oql;
    EXPECT_EQ(plan->hi->Compare(Value::Int(a + 50)), 0) << oql;
    EXPECT_TRUE(plan->lo_inclusive && !plan->hi_inclusive) << oql;
    EXPECT_EQ(plan->plans_considered, 2u) << oql;
    size_t actual = MustRun(oql).size();
    EXPECT_EQ(actual, 50u) << oql;
    uint64_t est = plan->est_input_rows;
    EXPECT_LE(est > actual ? est - actual : actual - est, bucket) << oql;
  }
}

// ToString must equal the rendered EXPLAIN tree, estimates included, and
// must not depend on constructing a throwaway operator.
TEST_F(QueryOptimizerTest, PlanToStringMatchesExplainWithEstimates) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part",
               {{"Key", Value::Int(i)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  for (const char* oql :
       {"select Part where Key = 5",
        "select Part where Key = 5 and Weight > 2",
        "select Part where Weight > 2", "select Part",
        "select Part only where Key < 10"}) {
    auto q = db_->parser().ParseQuery(oql);
    ASSERT_TRUE(q.ok()) << oql;
    auto plan = db_->query_engine().Plan(*q);
    ASSERT_TRUE(plan.ok()) << oql;
    auto tree = db_->query_engine().Explain(*q);
    ASSERT_TRUE(tree.ok()) << oql;
    EXPECT_EQ(plan->ToString(), *tree) << oql;
  }

  // Same identity once histograms price the plans.
  ASSERT_TRUE(MustRun("analyze Part").empty());
  for (const char* oql :
       {"select Part where Key = 5",
        "select Part where Key = 5 and Weight > 2", "select Part"}) {
    auto q = db_->parser().ParseQuery(oql);
    ASSERT_TRUE(q.ok()) << oql;
    auto plan = db_->query_engine().Plan(*q);
    ASSERT_TRUE(plan.ok()) << oql;
    auto tree = db_->query_engine().Explain(*q);
    ASSERT_TRUE(tree.ok()) << oql;
    EXPECT_EQ(plan->ToString(), *tree) << oql;
  }
}

TEST_F(QueryOptimizerTest, ExplainAnalyzeShowsEstimatesNextToActuals) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i % 50)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  auto rendered =
      db_->ExplainAnalyzeOql("explain analyze select Part where Key = 3");
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_NE(rendered->find("est_rows="), std::string::npos);
  EXPECT_NE(rendered->find("est_cost="), std::string::npos);
  EXPECT_NE(rendered->find("rows=2"), std::string::npos);
  EXPECT_NE(rendered->find("Result: 2 rows"), std::string::npos);
}

TEST_F(QueryOptimizerTest, OptimizerMetricsMove) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 100; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  obs::MetricsRegistry& m = db_->metrics();
  auto considered = [&] {
    return m.GetCounter("optimizer.plans_considered")->value();
  };
  auto chosen = [&] {
    return m.GetCounter("optimizer.index_plans_chosen")->value();
  };
  auto errors = [&] {
    return m.GetHistogram("optimizer.est_rows_error_pct")->data().count;
  };
  const uint64_t considered0 = considered(), chosen0 = chosen(),
                 errors0 = errors();

  // Every execution records its plan: the scan plus the one indexed path
  // considered, and one estimation-error observation, analyzed or not.
  MustRun("select Part where Key = 5");  // 1/keys prices the probe
  EXPECT_EQ(considered(), considered0 + 2);
  EXPECT_EQ(chosen(), chosen0 + 1);
  EXPECT_EQ(errors(), errors0 + 1);

  ASSERT_TRUE(MustRun("analyze Part").empty());
  EXPECT_GE(m.GetCounter("optimizer.analyze_runs")->value(), 1u);
  // Two conjuncts on one path are one key interval: still two candidates.
  MustRun("select Part where Key >= 5 and Key < 8");
  EXPECT_EQ(considered(), considered0 + 4);
  EXPECT_EQ(chosen(), chosen0 + 2);
  EXPECT_EQ(errors(), errors0 + 2);
}

// --- batch execution --------------------------------------------------------

// Every plan shape against the forced scan (an index-less engine) over a
// hierarchy of 700 objects: Part's 467-object extent puts a 256-row batch
// boundary inside a child extent, and the 350 candidates of a Key probe
// put one inside an index candidate list. The probes run as hand-built
// index plans: a two-key path is not worth probing to the planner.
TEST_F(QueryOptimizerTest, BatchSizesAgreeAcrossBoundaries) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  auto key_index =
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"});
  ASSERT_TRUE(key_index.ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 700; ++i) {
    MustInsert(*t, i % 3 == 0 ? "SubPart" : "Part",
               {{"Key", Value::Int(i % 2)}, {"Weight", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  auto index = db_->indexes().GetIndex(*key_index);
  ASSERT_TRUE(index.ok());

  QueryEngine scan_engine(&db_->store(), nullptr);
  struct Shape {
    const char* oql;
    std::optional<Value> probe;  // the Key an index plan probes
    const char* residual;        // what that plan re-checks
    size_t rows;
  };
  for (const Shape& shape : {
           Shape{"select Part where Weight < 600", {}, "", 600},  // scan
           Shape{"select Part where Key = 1 and Weight > 50", Value::Int(1),
                 "Weight > 50", 325},
           Shape{"select Part where Key = 0", Value::Int(0), "", 350},
           Shape{"select Part", {}, "", 700},  // unfiltered
       }) {
    auto q = db_->parser().ParseQuery(shape.oql);
    ASSERT_TRUE(q.ok()) << shape.oql;
    exec::ExecContext ictx(&db_->buffer_pool());
    std::vector<Oid> indexed;
    if (shape.probe.has_value()) {
      ExprPtr residual;
      if (*shape.residual != '\0') {
        auto parsed = db_->parser().ParseExpression(shape.residual);
        ASSERT_TRUE(parsed.ok()) << shape.residual;
        residual = *parsed;
      }
      indexed = RunIndexPlan(*q, **index, *shape.probe, residual, &ictx);
    } else {
      auto planned = db_->query_engine().Execute(*q, &ictx);
      ASSERT_TRUE(planned.ok()) << shape.oql;
      indexed = *planned;
    }
    exec::ExecContext sctx(&db_->buffer_pool());
    auto scanned = scan_engine.Execute(*q, &sctx);
    ASSERT_TRUE(scanned.ok()) << shape.oql;
    EXPECT_EQ(ictx.used_index.load(), shape.probe.has_value()) << shape.oql;
    std::sort(indexed.begin(), indexed.end());
    std::sort(scanned->begin(), scanned->end());
    EXPECT_EQ(indexed, *scanned) << shape.oql;
    EXPECT_EQ(indexed.size(), shape.rows) << shape.oql;
  }
}

TEST_F(QueryOptimizerTest, BatchedSnapshotIgnoresConcurrentWriter) {
  BuildHierarchy();
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 100; ++i) {
    oids.push_back(MustInsert(*t, "Part", {{"Key", Value::Int(i)}}));
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  // Pin a snapshot, then let a writer commit inserts, an update and a
  // delete "concurrently" (after the pin, before the read).
  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  auto t2 = db_->Begin();
  ASSERT_TRUE(t2.ok());
  for (int i = 0; i < 20; ++i) {
    MustInsert(*t2, "Part", {{"Key", Value::Int(500 + i)}});
  }
  ASSERT_TRUE(db_->Set(*t2, oids[0], "Key", Value::Int(999)).ok());
  ASSERT_TRUE(db_->Delete(*t2, oids[1]).ok());
  ASSERT_TRUE(db_->Commit(*t2).ok());

  auto q = db_->parser().ParseQuery("select Part where Key >= 0");
  ASSERT_TRUE(q.ok());
  exec::ExecContext ctx(&db_->buffer_pool());
  ctx.set_snapshot(snap.read_ts());
  auto rows = db_->query_engine().Execute(*q, &ctx);
  ASSERT_TRUE(rows.ok());
  // The snapshot still sees all 100 original objects and none of the
  // writer's 20, the delete included.
  EXPECT_EQ(rows->size(), 100u);

  // A current-time batched read sees the writer's world: 100 - 1 + 20.
  exec::ExecContext now_ctx(&db_->buffer_pool());
  auto now_rows = db_->query_engine().Execute(*q, &now_ctx);
  ASSERT_TRUE(now_rows.ok());
  EXPECT_EQ(now_rows->size(), 119u);
}

// --- index plans under snapshots ---------------------------------------------

// E2 under a snapshot: a covered class-hierarchy equality stays an
// IndexScan while an uncommitted writer moves the key away and inserts a
// new holder of it; the snapshot still sees exactly its one object.
TEST_F(QueryOptimizerTest, E2IndexPlanHoldsUnderSnapshotWithWriter) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 300; ++i) {
    oids.push_back(MustInsert(*t, i % 2 == 0 ? "Part" : "SubPart",
                              {{"Key", Value::Int(i + 100)}}));
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(db_->Set(*w, oids[50], "Key", Value::Int(9999)).ok());
  MustInsert(*w, "SubPart", {{"Key", Value::Int(150)}});
  EXPECT_GT(db_->indexes().stats().deferred_entries, 0u);

  SnapshotRun r = RunAt(snap, "select Part where Key = 150");
  ExpectEstimatedIndexScan(r.tree);
  EXPECT_EQ(r.indexed, std::vector<Oid>{oids[50]});
  EXPECT_EQ(r.indexed, r.scanned);
  EXPECT_TRUE(RunAt(snap, "select Part where Key = 9999").indexed.empty());

  ASSERT_TRUE(db_->Commit(*w).ok());
  SnapshotRun after = RunAt(snap, "select Part where Key = 150");
  EXPECT_EQ(after.indexed, std::vector<Oid>{oids[50]});
  EXPECT_EQ(after.indexed, after.scanned);
}

// E3 under a snapshot: the nested index keeps its plan (Filter over
// IndexScan) while an uncommitted writer relocates the Detroit company and
// moves another company to Detroit. With a path class versioned, the
// IndexScan answers from a version-resolving walk of the scope.
TEST_F(QueryOptimizerTest, E3NestedIndexPlanHoldsUnderSnapshotWithWriter) {
  BuildNested();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, vehicle,
                               {"Manufacturer", "Location"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> companies;
  for (int i = 0; i < 20; ++i) {
    companies.push_back(MustInsert(
        *t, "Company",
        {{"Name", Value::Str("C" + std::to_string(i))},
         {"Location", Value::Str(i == 0 ? "Detroit"
                                        : "City" + std::to_string(i))}}));
  }
  for (int i = 0; i < 200; ++i) {
    MustInsert(*t, "Vehicle",
               {{"Weight", Value::Int(i * 100)},
                {"Manufacturer", Value::Ref(companies[i % 20])}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Vehicle").empty());

  const char* oql =
      "select Vehicle where Manufacturer.Location = 'Detroit' "
      "and Weight > 7500";
  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(
      db_->Set(*w, companies[0], "Location", Value::Str("Austin")).ok());
  ASSERT_TRUE(
      db_->Set(*w, companies[1], "Location", Value::Str("Detroit")).ok());

  SnapshotRun r = RunAt(snap, oql);
  ExpectEstimatedIndexScan(r.tree);
  EXPECT_NE(r.tree.find("Filter("), std::string::npos) << r.tree;
  EXPECT_EQ(r.indexed.size(), 6u);
  EXPECT_EQ(r.indexed, r.scanned);

  ASSERT_TRUE(db_->Abort(*w).ok());
  SnapshotRun after = RunAt(snap, oql);
  EXPECT_EQ(after.indexed, r.indexed);
  EXPECT_EQ(after.indexed, after.scanned);
}

// The scope walk of a nested IndexScan spans several batches: 600
// vehicles in scope, half of them made in Detroit, while a writer moves
// the Detroit makers around. The walk re-checks the probe in the scan's
// page buffer and must match the forced scan at every snapshot.
TEST_F(QueryOptimizerTest, NestedIndexScopeWalkSpansBatches) {
  BuildNested();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, vehicle,
                               {"Manufacturer", "Location"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> companies;
  for (int i = 0; i < 20; ++i) {
    companies.push_back(MustInsert(
        *t, "Company",
        {{"Location", Value::Str(i < 10 ? "Detroit" : "Austin")}}));
  }
  for (int i = 0; i < 600; ++i) {
    MustInsert(*t, "Vehicle",
               {{"Weight", Value::Int(i)},
                {"Manufacturer", Value::Ref(companies[i % 20])}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  const char* oql = "select Vehicle where Manufacturer.Location = 'Detroit'";
  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(
      db_->Set(*w, companies[0], "Location", Value::Str("Austin")).ok());
  ASSERT_TRUE(
      db_->Set(*w, companies[15], "Location", Value::Str("Detroit")).ok());

  // A versioned path class sends the probe to the scope walk: the
  // IndexScan reads all 600 vehicles itself, with no scan node below it,
  // and EXPLAIN ANALYZE names the walk on the IndexScan line.
  SnapshotRun r = RunAt(snap, oql);
  EXPECT_NE(r.tree.find("IndexScan("), std::string::npos) << r.tree;
  EXPECT_EQ(r.tree.find("ExtentScan("), std::string::npos) << r.tree;
  EXPECT_NE(r.tree.find("scanned=600"), std::string::npos) << r.tree;
  size_t line = r.tree.find("IndexScan(");
  EXPECT_LT(r.tree.find(", scope_walk)", line), r.tree.find('\n', line))
      << r.tree;
  EXPECT_EQ(r.indexed.size(), 300u);
  EXPECT_EQ(r.indexed, r.scanned);

  // A served query walks the scope too, and the metrics flush counts it.
  obs::Counter* walks = db_->metrics().GetCounter("index.snapshot_scope_scans");
  const uint64_t walks0 = walks->value();
  EXPECT_EQ(MustRun(oql).size(), 300u);
  EXPECT_EQ(walks->value(), walks0 + 1);

  ASSERT_TRUE(db_->Commit(*w).ok());
  EXPECT_EQ(RunAt(snap, oql).indexed, r.indexed);
  Snapshot later = db_->txns().mvcc()->AcquireSnapshot();
  SnapshotRun moved = RunAt(later, oql);
  EXPECT_EQ(moved.indexed.size(), 300u);
  EXPECT_NE(moved.indexed, r.indexed);
  EXPECT_EQ(moved.indexed, moved.scanned);
}

// Two writers sharing a Company. W1 (left pending) re-points a vehicle
// from C0 to C1; W2 relocates C0 and commits. A snapshot taken then sees
// the vehicle's old reference and C0's new location: a key no maintenance
// step derived (W2's reached no vehicle, since W1 had moved the backward
// chain), so the nested IndexScan must answer from the scope.
TEST_F(QueryOptimizerTest, NestedIndexSeesPathCommitUnderPendingTarget) {
  BuildNested();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, vehicle,
                               {"Manufacturer", "Location"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  Oid c0 = MustInsert(*t, "Company", {{"Location", Value::Str("Detroit")}});
  Oid c1 = MustInsert(*t, "Company", {{"Location", Value::Str("Austin")}});
  Oid v = MustInsert(*t, "Vehicle", {{"Manufacturer", Value::Ref(c0)}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto w1 = db_->Begin();
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(db_->Set(*w1, v, "Manufacturer", Value::Ref(c1)).ok());
  auto w2 = db_->Begin();
  ASSERT_TRUE(w2.ok());
  ASSERT_TRUE(db_->Set(*w2, c0, "Location", Value::Str("Boston")).ok());
  ASSERT_TRUE(db_->Commit(*w2).ok());

  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  const char* oql = "select Vehicle where Manufacturer.Location = 'Boston'";
  SnapshotRun r = RunAt(snap, oql);
  EXPECT_NE(r.tree.find("IndexScan("), std::string::npos) << r.tree;
  EXPECT_EQ(r.scanned, std::vector<Oid>{v});
  EXPECT_EQ(r.indexed, r.scanned);
  SnapshotRun old_key =
      RunAt(snap, "select Vehicle where Manufacturer.Location = 'Detroit'");
  EXPECT_TRUE(old_key.scanned.empty());
  EXPECT_EQ(old_key.indexed, old_key.scanned);

  ASSERT_TRUE(db_->Abort(*w1).ok());
  SnapshotRun after = RunAt(snap, oql);
  EXPECT_EQ(after.indexed, std::vector<Oid>{v});
  EXPECT_EQ(after.indexed, after.scanned);
}

// The insert variant: W1 (left pending) relocates C0; W2 inserts a vehicle
// made by C0 and commits. Its only key was derived from C0's uncommitted
// location, yet a snapshot taken after W2's commit reads C0's committed
// one.
TEST_F(QueryOptimizerTest, NestedIndexSeesInsertUnderPendingPathWriter) {
  BuildNested();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, vehicle,
                               {"Manufacturer", "Location"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  Oid c0 = MustInsert(*t, "Company", {{"Location", Value::Str("Detroit")}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto w1 = db_->Begin();
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(db_->Set(*w1, c0, "Location", Value::Str("Boston")).ok());
  auto w2 = db_->Begin();
  ASSERT_TRUE(w2.ok());
  Oid v = MustInsert(*w2, "Vehicle", {{"Manufacturer", Value::Ref(c0)}});
  ASSERT_TRUE(db_->Commit(*w2).ok());

  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  const char* oql = "select Vehicle where Manufacturer.Location = 'Detroit'";
  SnapshotRun r = RunAt(snap, oql);
  EXPECT_EQ(r.scanned, std::vector<Oid>{v});
  EXPECT_EQ(r.indexed, r.scanned);
  SnapshotRun dirty =
      RunAt(snap, "select Vehicle where Manufacturer.Location = 'Boston'");
  EXPECT_TRUE(dirty.scanned.empty());
  EXPECT_EQ(dirty.indexed, dirty.scanned);

  ASSERT_TRUE(db_->Commit(*w1).ok());
  Snapshot later = db_->txns().mvcc()->AcquireSnapshot();
  EXPECT_EQ(RunAt(snap, oql).indexed, std::vector<Oid>{v});
  SnapshotRun moved =
      RunAt(later, "select Vehicle where Manufacturer.Location = 'Boston'");
  EXPECT_EQ(moved.indexed, std::vector<Oid>{v});
  EXPECT_EQ(moved.indexed, moved.scanned);
}

// E12 under a snapshot: the costed range plan over Weight stays an
// IndexScan while an uncommitted writer moves one in-range object out of
// the range and one out-of-range object into it.
TEST_F(QueryOptimizerTest, E12RangePlanHoldsUnderSnapshotWithWriter) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kClassHierarchy, part, {"Weight"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 400; ++i) {
    oids.push_back(MustInsert(
        *t, "Part", {{"Key", Value::Int(7)}, {"Weight", Value::Int(i)}}));
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  ASSERT_TRUE(MustRun("analyze Part").empty());

  const char* oql = "select Part where Key = 7 and Weight < 10";
  Snapshot snap = db_->txns().mvcc()->AcquireSnapshot();
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(db_->Set(*w, oids[5], "Weight", Value::Int(500)).ok());
  ASSERT_TRUE(db_->Set(*w, oids[300], "Weight", Value::Int(3)).ok());

  SnapshotRun r = RunAt(snap, oql);
  ExpectEstimatedIndexScan(r.tree);
  EXPECT_NE(r.tree.find("IndexScan(path=Weight"), std::string::npos)
      << r.tree;
  std::vector<Oid> expected(oids.begin(), oids.begin() + 10);
  EXPECT_EQ(r.indexed, expected);
  EXPECT_EQ(r.indexed, r.scanned);
  ASSERT_TRUE(db_->Commit(*w).ok());
  EXPECT_EQ(RunAt(snap, oql).indexed, expected);
}

// The abort race: a writer changes a key, a reader probes, the writer
// aborts -- the rollback re-adds the old key, so retiring the deferred
// entry must not remove it, and the object stays findable.
TEST_F(QueryOptimizerTest, AbortedKeyChangeKeepsObjectFindable) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 50; ++i) {
    oids.push_back(MustInsert(*t, "Part", {{"Key", Value::Int(i)}}));
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(db_->Set(*w, oids[10], "Key", Value::Int(1000)).ok());
  EXPECT_EQ(db_->indexes().stats().deferred_entries, 1u);
  EXPECT_EQ(MustRun("select Part where Key = 10"), std::vector<Oid>{oids[10]});
  EXPECT_TRUE(MustRun("select Part where Key = 1000").empty());

  ASSERT_TRUE(db_->Abort(*w).ok());
  EXPECT_EQ(db_->indexes().stats().deferred_entries, 0u);
  EXPECT_GE(db_->indexes().stats().deferred_retired, 1u);
  EXPECT_EQ(MustRun("select Part where Key = 10"), std::vector<Oid>{oids[10]});
  EXPECT_TRUE(MustRun("select Part where Key = 1000").empty());

  // The tree itself is exact again: no re-check needed, key 10 present,
  // the aborted key gone.
  auto info = db_->indexes().GetIndex(db_->indexes().AllIndexes()[0]->id);
  ASSERT_TRUE(info.ok());
  std::vector<Oid> out;
  SnapshotCheck check = SnapshotCheck::kScan;
  ASSERT_TRUE(db_->indexes()
                  .LookupEq(**info, Value::Int(10), part, true, &out, &check)
                  .ok());
  EXPECT_EQ(check, SnapshotCheck::kNone);
  EXPECT_EQ(out, std::vector<Oid>{oids[10]});
  out.clear();
  ASSERT_TRUE(
      db_->indexes().LookupEq(**info, Value::Int(1000), part, true, &out).ok());
  EXPECT_TRUE(out.empty());
}

// An index built while an older snapshot still reads a superseded key
// holds only the heap's keys, so that snapshot must not plan through it;
// snapshots taken after the build do.
TEST_F(QueryOptimizerTest, IndexBuiltAfterSnapshotIsNotPlannedForIt) {
  BuildHierarchy();
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  std::vector<Oid> oids;
  for (int i = 0; i < 50; ++i) {
    oids.push_back(MustInsert(*t, "Part", {{"Key", Value::Int(i)}}));
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  Snapshot old = db_->txns().mvcc()->AcquireSnapshot();
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(db_->Set(*w, oids[10], "Key", Value::Int(1000)).ok());
  ASSERT_TRUE(db_->Commit(*w).ok());
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());

  SnapshotRun before = RunAt(old, "select Part where Key = 10");
  EXPECT_EQ(before.tree.find("IndexScan("), std::string::npos) << before.tree;
  EXPECT_EQ(before.indexed, std::vector<Oid>{oids[10]});
  EXPECT_EQ(before.indexed, before.scanned);

  Snapshot now = db_->txns().mvcc()->AcquireSnapshot();
  SnapshotRun after = RunAt(now, "select Part where Key = 1000");
  EXPECT_NE(after.tree.find("IndexScan("), std::string::npos) << after.tree;
  EXPECT_EQ(after.indexed, std::vector<Oid>{oids[10]});
}

// --- index maintenance skips untouched paths -----------------------------------

TEST_F(QueryOptimizerTest, NonKeySetLeavesIndexMaintenanceUntouched) {
  BuildHierarchy();
  ClassId part = *db_->FindClass("Part");
  ASSERT_TRUE(
      db_->indexes().CreateIndex(IndexKind::kClassHierarchy, part, {"Key"})
          .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  Oid oid = MustInsert(*t, "Part",
                       {{"Key", Value::Int(1)}, {"Weight", Value::Int(1)}});
  ASSERT_TRUE(db_->Commit(*t).ok());

  const uint64_t ops = db_->indexes().stats().maintenance_ops;
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(db_->Set(*w, oid, "Weight", Value::Int(2)).ok());
  ASSERT_TRUE(db_->Commit(*w).ok());
  EXPECT_EQ(db_->indexes().stats().maintenance_ops, ops);

  auto k = db_->Begin();
  ASSERT_TRUE(k.ok());
  ASSERT_TRUE(db_->Set(*k, oid, "Key", Value::Int(2)).ok());
  ASSERT_TRUE(db_->Commit(*k).ok());
  EXPECT_EQ(db_->indexes().stats().maintenance_ops, ops + 1);
  EXPECT_EQ(MustRun("select Part where Key = 2"), std::vector<Oid>{oid});
}

TEST_F(QueryOptimizerTest, E3LocationChangeStillRefreshesTargets) {
  BuildNested();
  ClassId vehicle = *db_->FindClass("Vehicle");
  ASSERT_TRUE(db_->indexes()
                  .CreateIndex(IndexKind::kNested, vehicle,
                               {"Manufacturer", "Location"})
                  .ok());
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  Oid company =
      MustInsert(*t, "Company",
                 {{"Name", Value::Str("GM")},
                  {"Location", Value::Str("Detroit")}});
  std::vector<Oid> vehicles;
  for (int i = 0; i < 4; ++i) {
    vehicles.push_back(MustInsert(*t, "Vehicle",
                                  {{"Weight", Value::Int(i)},
                                   {"Manufacturer", Value::Ref(company)}}));
  }
  ASSERT_TRUE(db_->Commit(*t).ok());
  std::sort(vehicles.begin(), vehicles.end());

  // Neither the company's Name nor a vehicle's Weight is on the path.
  const uint64_t ops = db_->indexes().stats().maintenance_ops;
  auto w = db_->Begin();
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(db_->Set(*w, company, "Name", Value::Str("General")).ok());
  ASSERT_TRUE(db_->Set(*w, vehicles[0], "Weight", Value::Int(9)).ok());
  ASSERT_TRUE(db_->Commit(*w).ok());
  EXPECT_EQ(db_->indexes().stats().maintenance_ops, ops);

  auto m = db_->Begin();
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(db_->Set(*m, company, "Location", Value::Str("Austin")).ok());
  ASSERT_TRUE(db_->Commit(*m).ok());
  EXPECT_EQ(db_->indexes().stats().maintenance_ops, ops + 4);
  EXPECT_EQ(MustRun("select Vehicle where Manufacturer.Location = 'Austin'"),
            vehicles);
  EXPECT_TRUE(
      MustRun("select Vehicle where Manufacturer.Location = 'Detroit'")
          .empty());
}

TEST_F(QueryOptimizerTest, BudgetCancelsMidBatch) {
  BuildHierarchy();
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < 2000; ++i) {
    MustInsert(*t, "Part", {{"Key", Value::Int(i)}});
  }
  ASSERT_TRUE(db_->Commit(*t).ok());

  auto q = db_->parser().ParseQuery("select Part where Key >= 0");
  ASSERT_TRUE(q.ok());
  exec::ExecContext ctx(&db_->buffer_pool());
  ctx.set_budget(std::chrono::nanoseconds(0));
  auto rows = db_->query_engine().Execute(*q, &ctx);
  EXPECT_FALSE(rows.ok());
  EXPECT_TRUE(rows.status().IsDeadlineExceeded())
      << rows.status().ToString();

  // Cancellation mid-stream behaves the same.
  exec::ExecContext ctx2(&db_->buffer_pool());
  ctx2.Cancel();
  auto rows2 = db_->query_engine().Execute(*q, &ctx2);
  EXPECT_FALSE(rows2.ok());
  EXPECT_TRUE(rows2.status().IsDeadlineExceeded());
}

}  // namespace
}  // namespace kimdb

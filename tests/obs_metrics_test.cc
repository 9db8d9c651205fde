// Observability layer: registry snapshot/diff round-trips, histogram
// behaviour under concurrent recorders (run under scripts/tsan_ctest.sh),
// the ExecContext trace cap and budget re-arm race, and the EXPLAIN
// ANALYZE golden assertions tying per-operator spans to QueryStats.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "obs/metrics.h"

namespace kimdb {
namespace {

using obs::HistogramData;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// --- primitives -----------------------------------------------------------

TEST(ObsMetricsTest, CounterGaugeSnapshot) {
  MetricsRegistry reg;
  reg.GetCounter("a.count")->Inc(3);
  reg.GetCounter("a.count")->Inc();
  reg.GetGauge("a.level")->Set(-7);
  reg.GetGauge("a.level")->Add(2);

  MetricsSnapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.Value("a.count"), 4);
  EXPECT_EQ(snap.Value("a.level"), -5);
  EXPECT_EQ(snap.Value("missing", 42), 42);
}

TEST(ObsMetricsTest, GetReturnsStablePointers) {
  MetricsRegistry reg;
  obs::Counter* c1 = reg.GetCounter("x");
  obs::Counter* c2 = reg.GetCounter("x");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(static_cast<void*>(reg.GetHistogram("x")),
            static_cast<void*>(c1));  // separate namespaces per kind
}

TEST(ObsMetricsTest, HistogramBucketsAndPercentiles) {
  obs::Histogram h;
  // 90 values of 100ns and 10 values of 10000ns: p50 lands in the bucket
  // containing 100, p99 in the bucket containing 10000. Log2 buckets bound
  // the reported value to [v, 2v).
  for (int i = 0; i < 90; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(10000);
  HistogramData d = h.data();
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.sum, 90u * 100 + 10u * 10000);
  EXPECT_EQ(d.max, 10000u);
  EXPECT_GE(d.Percentile(0.50), 100u);
  EXPECT_LT(d.Percentile(0.50), 200u);
  EXPECT_GE(d.Percentile(0.99), 10000u);
  // The upper bound is clamped to the true max.
  EXPECT_LE(d.Percentile(0.99), 10000u);
  EXPECT_EQ(d.Percentile(1.0), 10000u);
  EXPECT_EQ(HistogramData{}.Percentile(0.5), 0u);

  // Nearest-rank at tiny counts: with two samples, the tail percentiles
  // must report the larger one, not the smaller.
  obs::Histogram two;
  two.Record(100);
  two.Record(10000);
  EXPECT_EQ(two.data().Percentile(0.95), 10000u);
  EXPECT_LT(two.data().Percentile(0.50), 200u);
}

TEST(ObsMetricsTest, HistogramZeroAndHugeValues) {
  obs::Histogram h;
  h.Record(0);
  h.Record(UINT64_MAX);
  HistogramData d = h.data();
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.max, UINT64_MAX);
  EXPECT_EQ(d.buckets[0], 1u);   // bit_width(0) == 0
  EXPECT_EQ(d.buckets[64], 1u);  // bit_width(UINT64_MAX) == 64
  EXPECT_EQ(d.Percentile(1.0), UINT64_MAX);
}

TEST(ObsMetricsTest, HistogramConcurrentRecorders) {
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  HistogramData d = h.data();
  EXPECT_EQ(d.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    want_sum += static_cast<uint64_t>(kPerThread) * (t * 1000ull + 1);
  }
  EXPECT_EQ(d.sum, want_sum);
  EXPECT_EQ(d.max, 3001u);
  EXPECT_GE(d.Percentile(0.95), 2001u);  // top quarter of values is 3001
}

TEST(ObsMetricsTest, TimerRecordsAndNullIsFree) {
  obs::Histogram h;
  {
    obs::Timer t(&h);
  }
  EXPECT_EQ(h.data().count, 1u);
  {
    obs::Timer t(&h);
    t.Stop();
    t.Stop();  // idempotent: second Stop and destruction record nothing
  }
  EXPECT_EQ(h.data().count, 2u);
  {
    obs::Timer t(nullptr);  // must not crash
    t.Stop();
  }
}

// --- snapshot / diff ------------------------------------------------------

TEST(ObsMetricsTest, SnapshotDiffRoundTrip) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("work.items");
  obs::Gauge* g = reg.GetGauge("work.level");
  obs::Histogram* h = reg.GetHistogram("work.latency_ns");
  uint64_t pulled = 100;
  reg.RegisterCollector("work.pulled", [&pulled] { return pulled; });

  c->Inc(5);
  g->Set(10);
  h->Record(50);
  MetricsSnapshot before = reg.TakeSnapshot();

  c->Inc(7);
  g->Set(3);
  h->Record(70);
  h->Record(90);
  pulled = 142;
  MetricsSnapshot after = reg.TakeSnapshot();

  MetricsSnapshot diff = MetricsRegistry::Diff(before, after);
  EXPECT_EQ(diff.Value("work.items"), 7);
  EXPECT_EQ(diff.Value("work.level"), 3);  // gauges report the after level
  EXPECT_EQ(diff.Value("work.pulled"), 42);
  HistogramData hd = diff.Hist("work.latency_ns");
  EXPECT_EQ(hd.count, 2u);
  EXPECT_EQ(hd.sum, 160u);

  // Diffing a snapshot against itself zeroes counters and histograms.
  MetricsSnapshot zero = MetricsRegistry::Diff(after, after);
  EXPECT_EQ(zero.Value("work.items"), 0);
  EXPECT_EQ(zero.Hist("work.latency_ns").count, 0u);
}

TEST(ObsMetricsTest, TextAndJsonExposition) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Inc(2);
  reg.GetGauge("a.level")->Set(-1);
  reg.GetHistogram("c.lat_ns")->Record(9);
  MetricsSnapshot snap = reg.TakeSnapshot();

  std::string text = snap.ToText();
  // Ordered by name, one line per metric.
  EXPECT_LT(text.find("a.level -1\n"), text.find("b.count 2\n"));
  EXPECT_NE(text.find("c.lat_ns count=1"), std::string::npos);

  std::string json = snap.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"a.level\":-1"), std::string::npos);
  EXPECT_NE(json.find("\"c.lat_ns\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
}

// --- ExecContext satellites ----------------------------------------------

TEST(ObsMetricsTest, TraceBufferIsCapped) {
  exec::ExecContext ctx;
  ctx.EnableTrace();
  for (size_t i = 0; i < exec::ExecContext::kMaxTraceEvents + 100; ++i) {
    ctx.Trace("event " + std::to_string(i));
  }
  EXPECT_EQ(ctx.TraceLines().size(), exec::ExecContext::kMaxTraceEvents);
  EXPECT_EQ(ctx.trace_dropped(), 100u);
}

TEST(ObsMetricsTest, BudgetRearmWhileWorkersPoll) {
  // set_budget re-armed concurrently with CheckBudget readers: the
  // deadline publish must be TSan-clean and never read torn.
  exec::ExecContext ctx;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        (void)ctx.CheckBudget();
      }
    });
  }
  for (int i = 0; i < 1000; ++i) {
    ctx.set_budget(std::chrono::seconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_TRUE(ctx.CheckBudget().ok());
  ctx.set_budget(std::chrono::nanoseconds(0));
  EXPECT_FALSE(ctx.CheckBudget().ok());
}

// --- end-to-end through the Database facade -------------------------------

class ObsMetricsDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/kimdb_obs_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Cleanup();
    DatabaseOptions opts;
    opts.path = base_;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void TearDown() override {
    db_.reset();
    Cleanup();
  }

  void Cleanup() {
    ::remove((base_ + ".db").c_str());
    ::remove((base_ + ".wal").c_str());
  }

  std::string base_;
  std::unique_ptr<Database> db_;
};

TEST_F(ObsMetricsDbTest, DurableWorkloadPopulatesWalAndLockHistograms) {
  ASSERT_TRUE(
      db_->CreateClass("Counter", {}, {{"N", Domain::Int()}}).ok());

  // Seed one object every thread will fight over (X-lock contention).
  Oid shared = kNilOid;
  {
    auto t = db_->Begin();
    ASSERT_TRUE(t.ok());
    auto oid = db_->Insert(*t, "Counter", {{"N", Value::Int(0)}});
    ASSERT_TRUE(oid.ok());
    shared = *oid;
    ASSERT_TRUE(db_->Commit(*t).ok());
  }

  MetricsSnapshot before = db_->metrics().TakeSnapshot();

  // Deterministic lock wait: t1 holds the X lock across the spawn of a
  // second writer, which must block until t1 commits (strict 2PL).
  {
    auto t1 = db_->Begin();
    ASSERT_TRUE(t1.ok());
    ASSERT_TRUE(db_->Set(*t1, shared, "N", Value::Int(1)).ok());
    std::thread blocked([this, shared] {
      auto t2 = db_->Begin();
      if (!t2.ok()) return;
      if (db_->Set(*t2, shared, "N", Value::Int(2)).ok()) {
        (void)db_->Commit(*t2);
      } else {
        (void)db_->Abort(*t2);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(db_->Commit(*t1).ok());
    blocked.join();
  }

  // General contention: several writers hammer the same object.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 10;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([this, shared] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto t = db_->Begin();
        if (!t.ok()) continue;
        if (db_->Set(*t, shared, "N", Value::Int(i)).ok()) {
          (void)db_->Commit(*t);
        } else {
          (void)db_->Abort(*t);  // deadlock victim: roll back and move on
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  MetricsSnapshot after = db_->metrics().TakeSnapshot();
  MetricsSnapshot diff = MetricsRegistry::Diff(before, after);

  // Every commit forced the log: fsync latency histogram is populated and
  // the fsync counter moved.
  EXPECT_GT(diff.Hist("wal.fsync_ns").count, 0u);
  EXPECT_GT(diff.Value("wal.fsyncs"), 0);
  EXPECT_GT(diff.Value("wal.appends"), 0);
  EXPECT_GT(diff.Hist("wal.append_ns").count, 0u);
  // Every transactional commit reserves its log slot under the commit
  // clock (DESIGN.md §14): the reservation latency histogram moves too.
  EXPECT_GT(diff.Hist("wal.reserve_ns").count, 0u);
  EXPECT_GT(diff.Hist("txn.commit_ns").count, 0u);
  EXPECT_GT(diff.Value("txn.committed"), 0);
  EXPECT_GT(diff.Value("lock.acquired"), 0);
  // The forced block above guarantees at least one timed wait; a blocked
  // acquisition records once but may loop through the wait counter several
  // times, so count is bounded by waits + deadlocks.
  EXPECT_GT(diff.Hist("lock.wait_ns").count, 0u);
  EXPECT_GT(diff.Value("lock.waits"), 0);
  EXPECT_LE(diff.Hist("lock.wait_ns").count,
            static_cast<uint64_t>(diff.Value("lock.waits") +
                                  diff.Value("lock.deadlocks")));

  // The JSON exposition carries the latency percentiles.
  std::string json = db_->MetricsJson();
  EXPECT_NE(json.find("\"wal.fsync_ns\":{\"count\":"), std::string::npos);
  EXPECT_NE(json.find("\"lock.wait_ns\":{"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST_F(ObsMetricsDbTest, ExplainAnalyzeRowsMatchQueryStats) {
  ASSERT_TRUE(db_->CreateClass("Part", {}, {{"X", Domain::Int()}}).ok());
  constexpr int kParts = 50;
  {
    auto t = db_->Begin();
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < kParts; ++i) {
      ASSERT_TRUE(db_->Insert(*t, "Part", {{"X", Value::Int(i)}}).ok());
    }
    ASSERT_TRUE(db_->Commit(*t).ok());
  }

  const char* oql = "select Part where X < 10";
  QueryStats stats;
  auto rows = db_->ExecuteOql(oql, &stats);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 10u);
  EXPECT_EQ(stats.objects_scanned, static_cast<uint64_t>(kParts));

  // Drive the same plan with spans armed and hold the tree to inspect it.
  auto q = db_->parser().ParseQuery(oql);
  ASSERT_TRUE(q.ok());
  auto plan = db_->query_engine().Plan(*q);
  ASSERT_TRUE(plan.ok());
  auto root = db_->query_engine().Lower(*q, *plan);
  ASSERT_TRUE(root.ok());
  exec::ExecContext ctx(&db_->buffer_pool());
  ctx.EnableAnalyze();
  auto oids = exec::CollectOids(**root, &ctx);
  ASSERT_TRUE(oids.ok());
  ASSERT_EQ(oids->size(), 10u);

  // Golden span assertions on the fused tree production runs: the Filter
  // emits exactly the result rows, and so does the scan below it, which
  // applied the predicate in its page buffer. The scan's input shows as
  // its scanned count, equal to the objects_scanned counter.
  const exec::Operator& filter = **root;
  EXPECT_EQ(filter.stats().rows, 10u);
  // loops counts NextBatch calls, so a 10-row result fits in a handful
  // of batches -- loops is small but never zero.
  EXPECT_GE(filter.stats().loops, 1u);
  EXPECT_LE(filter.stats().loops, 3u);
  ASSERT_EQ(filter.children().size(), 1u);
  const exec::Operator& scan = *filter.children()[0];
  QueryStats analyzed = StatsFromExecContext(ctx);
  EXPECT_EQ(analyzed.objects_scanned, static_cast<uint64_t>(kParts));
  EXPECT_EQ(scan.stats().rows, 10u);
  EXPECT_EQ(scan.stats().objects_scanned, analyzed.objects_scanned);
  EXPECT_GT(filter.stats().time_ns, 0u);

  // The rendered form carries the same numbers. Actual rows follow a
  // space; the scan's estimate of its 50 input rows reads est_rows=50.
  std::string rendered = exec::ExplainAnalyzeTree(**root);
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find(" rows=10"), std::string::npos);
  EXPECT_NE(rendered.find("scanned=50"), std::string::npos);
  EXPECT_EQ(rendered.find(" rows=50"), std::string::npos);
  EXPECT_NE(rendered.find("est_rows=50"), std::string::npos);

  // And the OQL-level entry point executes + renders in one call.
  auto analyzed_text =
      db_->ExplainAnalyzeOql("explain analyze select Part where X < 10");
  ASSERT_TRUE(analyzed_text.ok());
  EXPECT_NE(analyzed_text->find("rows=10"), std::string::npos);
  EXPECT_NE(analyzed_text->find("Result: 10 rows"), std::string::npos);
}

TEST_F(ObsMetricsDbTest, QueryCountersAccumulateAcrossExecutions) {
  ASSERT_TRUE(db_->CreateClass("Item", {}, {{"V", Domain::Int()}}).ok());
  {
    auto t = db_->Begin();
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(db_->Insert(*t, "Item", {{"V", Value::Int(i)}}).ok());
    }
    ASSERT_TRUE(db_->Commit(*t).ok());
  }
  MetricsSnapshot s0 = db_->metrics().TakeSnapshot();
  ASSERT_TRUE(db_->ExecuteOql("select Item where V = 3").ok());
  MetricsSnapshot s1 = db_->metrics().TakeSnapshot();
  ASSERT_TRUE(db_->ExecuteOql("select Item where V = 3").ok());
  MetricsSnapshot s2 = db_->metrics().TakeSnapshot();

  EXPECT_EQ(s1.Value("query.executed") - s0.Value("query.executed"), 1);
  EXPECT_EQ(s2.Value("query.executed") - s1.Value("query.executed"), 1);
  EXPECT_EQ(s1.Value("query.objects_scanned") - s0.Value("query.objects_scanned"), 8);
  EXPECT_EQ(s1.Hist("query.exec_ns").count + 1,
            s2.Hist("query.exec_ns").count);
}

}  // namespace
}  // namespace kimdb

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

namespace kimdb {
namespace e2e {
namespace {

// Stand-in OIDs: the stream generator only needs the index -> OID map.
Model FakeModel(Workload w, uint64_t seed) {
  Model m = Model::Generate(w, SizesFor(w, /*smoke=*/true), seed);
  m.part_oids.resize(m.graph.n);
  std::iota(m.part_oids.begin(), m.part_oids.end(), uint64_t{1} << 40);
  m.vehicle_oids.resize(m.vehicles.vehicles.size());
  std::iota(m.vehicle_oids.begin(), m.vehicle_oids.end(), uint64_t{2} << 40);
  return m;
}

std::string Stream(const Model& m, uint64_t seed, uint32_t conn, int units) {
  StreamGen gen(&m, seed, conn);
  std::string bytes;
  for (int i = 0; i < units; ++i) bytes += EncodeUnit(gen.Next());
  return bytes;
}

TEST(Percentile, NearestRankOrderStatistics) {
  std::vector<uint64_t> v(100);
  std::iota(v.begin(), v.end(), 1);
  EXPECT_EQ(Quantile(v, 0.5), 50u);
  EXPECT_EQ(Quantile(v, 0.95), 95u);
  EXPECT_EQ(Quantile(v, 0.99), 99u);
  EXPECT_EQ(Quantile(v, 1.0), 100u);
  EXPECT_EQ(Quantile({}, 0.5), 0u);
  EXPECT_EQ(Quantile({7}, 0.99), 7u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(200, 0.95));
  EXPECT_FALSE(TailSupported(199, 0.95));
  EXPECT_FALSE(TailSupported(0, 0.5));
}

TEST(Stream, SameSeedSameBytes) {
  for (Workload w : kAllWorkloads) {
    Model a = FakeModel(w, 7), b = FakeModel(w, 7);
    for (uint32_t c = 0; c < kConnections; ++c) {
      EXPECT_EQ(Stream(a, 7, c, 50), Stream(b, 7, c, 50)) << WorkloadName(w);
    }
    EXPECT_NE(Stream(a, 7, 0, 50), Stream(a, 7, 1, 50)) << WorkloadName(w);
    Model other = FakeModel(w, 8);
    EXPECT_NE(Stream(a, 7, 0, 50), Stream(other, 8, 0, 50)) << WorkloadName(w);
  }
}

TEST(Stream, UnitShapes) {
  Model tc = FakeModel(Workload::kTraverseCold, 1);
  Unit u = StreamGen(&tc, 1, 0).Next();
  ASSERT_EQ(u.batches.size(), 5u);
  size_t gets = 0;
  for (const Batch& b : u.batches) gets += b.reqs.size();
  EXPECT_EQ(gets, 121u);

  Model mixed = FakeModel(Workload::kOo1Mixed, 1);
  u = StreamGen(&mixed, 1, 0).Next();
  ASSERT_EQ(u.batches.size(), 6u);  // 4 traversal levels, BEGIN, pipeline
  EXPECT_EQ(u.batches[4].reqs.size(), 1u);
  EXPECT_EQ(u.batches[5].reqs.size(), 4u);  // 2 queries, SET, COMMIT
  EXPECT_TRUE(u.batches[5].binds_txns);
}

TEST(Stream, CommitBurstWritesOnlyOwnedDistinctParts) {
  Model m = FakeModel(Workload::kCommitBurst, 3);
  for (uint32_t c = 0; c < kConnections; ++c) {
    StreamGen gen(&m, 3, c);
    for (int i = 0; i < 200; ++i) {
      Unit u = gen.Next();
      ASSERT_EQ(u.batches.size(), 2u);
      EXPECT_EQ(u.batches[0].reqs.size(), 4u);
      std::vector<uint32_t> parts;
      for (const Expect& e : u.batches[1].expect) {
        if (e.kind != ReqKind::kSet) continue;
        EXPECT_EQ(e.part % kConnections, c);
        parts.push_back(e.part);
      }
      ASSERT_EQ(parts.size(), 4u);
      std::sort(parts.begin(), parts.end());
      EXPECT_EQ(std::unique(parts.begin(), parts.end()), parts.end());
    }
  }
}

TEST(Oo1Graph, NinetyTenLocality) {
  Oo1Graph g = Oo1Graph::Generate(30000, 11);
  size_t local = 0;
  for (size_t i = 0; i < g.n; ++i) {
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_LT(g.connections[i][c], g.n);
      local += g.IsLocal(i, c);
    }
  }
  // 90% are drawn from the zone; ~2% of the uniform 10% land there too.
  double share = static_cast<double>(local) / static_cast<double>(3 * g.n);
  EXPECT_GT(share, 0.895);
  EXPECT_LT(share, 0.91);
}

TEST(Model, AnswersMatchALinearScan) {
  Model m = FakeModel(Workload::kQueryMix, 5);
  StreamGen gen(&m, 5, 2);
  for (int i = 0; i < 300; ++i) {
    const Expect& e = gen.Next().batches[0].expect[0];
    std::vector<uint64_t> want;
    for (size_t v = 0; v < m.vehicles.vehicles.size(); ++v) {
      const VehicleData::Row& r = m.vehicles.vehicles[v];
      bool match = false;
      switch (e.query) {
        case QueryKind::kWeightEq: match = r.weight == e.a; break;
        case QueryKind::kWeightRange:
          match = r.weight >= e.a && r.weight < e.b;
          break;
        case QueryKind::kHeavyDetroit:
          match = r.weight > e.a && m.vehicles.Detroit(r.company);
          break;
        case QueryKind::kTruckPayload:
          match = r.cls == VehicleData::kTruck && r.payload >= e.a;
          break;
        case QueryKind::kPartId: break;
      }
      if (match) want.push_back(m.vehicle_oids[v]);
    }
    EXPECT_EQ(m.Answer(e), want) << QueryText(e);
    EXPECT_EQ(m.AnswerSize(e), want.size()) << QueryText(e);
  }
}

}  // namespace
}  // namespace e2e
}  // namespace kimdb

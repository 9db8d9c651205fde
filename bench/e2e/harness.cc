#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace kimdb {
namespace e2e {

namespace {

constexpr const char* kWorkloadNames[] = {"traverse-cold", "query-mix",
                                          "commit-burst", "oo1-mixed"};

// Written values start far above the generated X range [0, 100000), so a
// part still holding its load-time X is never mistaken for a write.
constexpr int64_t kFirstWrittenValue = 1'000'000;

net::Request GetRequest(uint64_t oid) {
  net::Request r;
  r.type = net::MsgType::kGet;
  r.oid = oid;
  return r;
}

// First index in `v` (sorted by key) whose key is >= `key`.
size_t LowerBound(const std::vector<std::pair<int64_t, uint32_t>>& v,
                  int64_t key) {
  return static_cast<size_t>(
      std::lower_bound(v.begin(), v.end(), std::make_pair(key, uint32_t{0})) -
      v.begin());
}

}  // namespace

const char* WorkloadName(Workload w) {
  return kWorkloadNames[static_cast<int>(w)];
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : kAllWorkloads) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

Sizes SizesFor(Workload w, bool smoke) {
  Sizes s;
  switch (w) {
    case Workload::kTraverseCold:
      s.parts = smoke ? 2000 : 100000;
      break;
    case Workload::kQueryMix:
      s.companies = smoke ? 20 : 200;
      s.vehicles = smoke ? 2000 : 20000;
      break;
    case Workload::kCommitBurst:
    case Workload::kOo1Mixed:
      s.parts = smoke ? 1000 : 10000;
      break;
  }
  return s;
}

uint64_t TailUnits(Workload w) {
  switch (w) {
    case Workload::kCommitBurst:
      return 256;  // 4096 commits
    case Workload::kOo1Mixed:
      return 8;  // 32 commits
    default:
      return 0;
  }
}

const char* ReqKindName(ReqKind k) {
  static constexpr const char* kNames[] = {"get", "query", "begin", "set",
                                           "commit"};
  return kNames[static_cast<int>(k)];
}

const char* QueryKindName(QueryKind k) {
  static constexpr const char* kNames[] = {"part_id", "weight_eq",
                                           "weight_range", "heavy_detroit",
                                           "truck_payload"};
  return kNames[static_cast<int>(k)];
}

// --- data ------------------------------------------------------------------

Oo1Graph Oo1Graph::Generate(size_t n, uint64_t seed) {
  Oo1Graph g;
  g.n = n;
  g.connections.resize(n);
  g.x.resize(n);
  g.y.resize(n);
  Rng rng(seed);
  const uint64_t zone = std::max<size_t>(1, n / 100);
  for (size_t i = 0; i < n; ++i) {
    g.x[i] = static_cast<int64_t>(rng.Uniform(100000));
    g.y[i] = static_cast<int64_t>(rng.Uniform(100000));
    for (auto& target : g.connections[i]) {
      if (rng.Double() < 0.9) {
        // Uniform offset in [-zone, zone], wrapped into [0, n).
        uint64_t off = rng.Uniform(2 * zone + 1);
        target = static_cast<uint32_t>((i + n - zone + off) % n);
      } else {
        target = static_cast<uint32_t>(rng.Uniform(n));
      }
    }
  }
  return g;
}

bool Oo1Graph::IsLocal(size_t i, size_t c) const {
  const size_t zone = std::max<size_t>(1, n / 100);
  size_t t = connections[i][c];
  size_t d = t > i ? t - i : i - t;
  return std::min(d, n - d) <= zone;
}

VehicleData VehicleData::Generate(size_t companies, size_t vehicles,
                                  uint64_t seed) {
  VehicleData d;
  Rng rng(seed ^ 0x5eedc0ffeeull);
  for (size_t i = 0; i < companies; ++i) {
    d.company_location.push_back(
        rng.Double() < 0.1 ? "Detroit"
                           : "City-" + std::to_string(rng.Uniform(100)));
  }
  for (size_t i = 0; i < vehicles; ++i) {
    Row r;
    r.cls = static_cast<int>(i % 4);
    r.weight = static_cast<int64_t>(rng.Uniform(10000));
    r.company = static_cast<uint32_t>(rng.Uniform(companies));
    if (r.cls == kTruck) r.payload = static_cast<int64_t>(rng.Uniform(5000));
    d.vehicles.push_back(r);
  }
  return d;
}

Model Model::Generate(Workload w, const Sizes& sizes, uint64_t seed) {
  Model m;
  m.workload = w;
  if (UsesParts(w)) {
    m.graph = Oo1Graph::Generate(sizes.parts, seed);
    return m;
  }
  m.vehicles = VehicleData::Generate(sizes.companies, sizes.vehicles, seed);
  const auto& rows = m.vehicles.vehicles;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    m.by_weight.emplace_back(rows[i].weight, i);
    if (rows[i].cls == VehicleData::kTruck) {
      m.by_payload.emplace_back(rows[i].payload, i);
    }
  }
  std::sort(m.by_weight.begin(), m.by_weight.end());
  std::sort(m.by_payload.begin(), m.by_payload.end());
  return m;
}

size_t Model::AnswerSize(const Expect& e) const {
  switch (e.query) {
    case QueryKind::kPartId:
      return 1;
    case QueryKind::kWeightEq:
      return LowerBound(by_weight, e.a + 1) - LowerBound(by_weight, e.a);
    case QueryKind::kWeightRange:
      return LowerBound(by_weight, e.b) - LowerBound(by_weight, e.a);
    case QueryKind::kHeavyDetroit:
      return Answer(e).size();
    case QueryKind::kTruckPayload:
      return by_payload.size() - LowerBound(by_payload, e.a);
  }
  return 0;
}

std::vector<uint64_t> Model::Answer(const Expect& e) const {
  std::vector<uint64_t> out;
  auto slice = [&](const std::vector<std::pair<int64_t, uint32_t>>& v,
                   size_t lo, size_t hi, bool detroit_only) {
    for (size_t i = lo; i < hi; ++i) {
      uint32_t idx = v[i].second;
      if (detroit_only && !vehicles.Detroit(vehicles.vehicles[idx].company)) {
        continue;
      }
      out.push_back(vehicle_oids[idx]);
    }
  };
  switch (e.query) {
    case QueryKind::kPartId:
      out.push_back(part_oids[static_cast<size_t>(e.a)]);
      break;
    case QueryKind::kWeightEq:
      slice(by_weight, LowerBound(by_weight, e.a),
            LowerBound(by_weight, e.a + 1), false);
      break;
    case QueryKind::kWeightRange:
      slice(by_weight, LowerBound(by_weight, e.a), LowerBound(by_weight, e.b),
            false);
      break;
    case QueryKind::kHeavyDetroit:
      slice(by_weight, LowerBound(by_weight, e.a + 1), by_weight.size(), true);
      break;
    case QueryKind::kTruckPayload:
      slice(by_payload, LowerBound(by_payload, e.a), by_payload.size(), false);
      break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string QueryText(const Expect& e) {
  const std::string a = std::to_string(e.a);
  switch (e.query) {
    case QueryKind::kPartId:
      return "select Part where PartId = " + a;
    case QueryKind::kWeightEq:
      return "select Vehicle where Weight = " + a;
    case QueryKind::kWeightRange:
      return "select Vehicle where Weight >= " + a + " and Weight < " +
             std::to_string(e.b);
    case QueryKind::kHeavyDetroit:
      return "select Vehicle where Weight > " + a +
             " and Manufacturer.Location = 'Detroit'";
    case QueryKind::kTruckPayload:
      return "select Truck where Payload >= " + a;
  }
  return "";
}

// --- streams -------------------------------------------------------------------

StreamGen::StreamGen(const Model* model, uint64_t seed, uint32_t conn)
    : model_(model),
      conn_(conn),
      rng_(seed * 0x100000001b3ull + 0x632be59bd9b4e019ull * (conn + 1)) {}

uint32_t StreamGen::RandomOwnedPart() {
  const size_t n = model_->graph.n;
  const size_t owned = (n - conn_ + kConnections - 1) / kConnections;
  return static_cast<uint32_t>(conn_ + kConnections * rng_.Uniform(owned));
}

void StreamGen::AddTraversal(Unit* u, int depth) {
  // Breadth-first, one pipelined batch per level, without de-duplication
  // (OO1 traversals revisit shared parts): 1 + 3 + ... + 3^depth GETs.
  std::vector<uint32_t> level = {
      static_cast<uint32_t>(rng_.Uniform(model_->graph.n))};
  for (int d = 0; d <= depth; ++d) {
    Batch b;
    std::vector<uint32_t> next;
    for (uint32_t part : level) {
      b.reqs.push_back(GetRequest(model_->part_oids[part]));
      Expect e;
      e.kind = ReqKind::kGet;
      e.part = part;
      b.expect.push_back(e);
      for (uint32_t t : model_->graph.connections[part]) next.push_back(t);
    }
    u->batches.push_back(std::move(b));
    level = std::move(next);
  }
}

Unit StreamGen::Next() {
  Unit u;
  auto add_query = [](Batch* b, const Expect& e) {
    net::Request r;
    r.type = net::MsgType::kQuery;
    r.text = QueryText(e);
    b->reqs.push_back(std::move(r));
    b->expect.push_back(e);
  };
  auto add_begins = [&u](int n) {
    Batch b;
    for (int i = 0; i < n; ++i) {
      net::Request r;
      r.type = net::MsgType::kTxnBegin;
      b.reqs.push_back(r);
      Expect e;
      e.kind = ReqKind::kBegin;
      b.expect.push_back(e);
    }
    u.batches.push_back(std::move(b));
  };
  auto add_set_commit = [&](Batch* b, uint8_t slot, uint32_t part) {
    Expect set;
    set.kind = ReqKind::kSet;
    set.part = part;
    set.value = kFirstWrittenValue + static_cast<int64_t>(writes_++);
    net::Request r;
    r.type = net::MsgType::kTxnSet;
    r.txn = slot;
    r.oid = model_->part_oids[part];
    r.text = "X";
    r.value = Value::Int(set.value);
    b->reqs.push_back(std::move(r));
    b->expect.push_back(set);
    net::Request c;
    c.type = net::MsgType::kTxnCommit;
    c.txn = slot;
    b->reqs.push_back(c);
    Expect commit = set;
    commit.kind = ReqKind::kCommit;
    b->expect.push_back(commit);
  };

  switch (model_->workload) {
    case Workload::kTraverseCold:
      AddTraversal(&u, 4);
      break;
    case Workload::kQueryMix: {
      Expect e;
      e.kind = ReqKind::kQuery;
      double r = rng_.Double();
      if (r < 0.4) {
        e.query = QueryKind::kWeightEq;
        e.a = static_cast<int64_t>(rng_.Uniform(10000));
      } else if (r < 0.7) {
        // 50 weight values x ~2 vehicles per value: ~100 rows.
        e.query = QueryKind::kWeightRange;
        e.a = static_cast<int64_t>(rng_.Uniform(9950));
        e.b = e.a + 50;
      } else if (r < 0.9) {
        e.query = QueryKind::kHeavyDetroit;
        e.a = 7500 + static_cast<int64_t>(rng_.Uniform(2500));
      } else {
        e.query = QueryKind::kTruckPayload;
        e.a = 4900 + static_cast<int64_t>(rng_.Uniform(100));
      }
      Batch b;
      add_query(&b, e);
      u.batches.push_back(std::move(b));
      break;
    }
    case Workload::kCommitBurst: {
      add_begins(4);
      Batch b;
      b.binds_txns = true;
      std::vector<uint32_t> parts;
      while (parts.size() < 4) {
        uint32_t p = RandomOwnedPart();
        if (std::find(parts.begin(), parts.end(), p) == parts.end()) {
          parts.push_back(p);
        }
      }
      for (uint8_t slot = 0; slot < 4; ++slot) {
        add_set_commit(&b, slot, parts[slot]);
      }
      u.batches.push_back(std::move(b));
      break;
    }
    case Workload::kOo1Mixed: {
      AddTraversal(&u, 3);
      add_begins(1);
      Batch b;
      b.binds_txns = true;
      for (int q = 0; q < 2; ++q) {
        Expect e;
        e.kind = ReqKind::kQuery;
        e.query = QueryKind::kPartId;
        e.a = static_cast<int64_t>(rng_.Uniform(model_->graph.n));
        add_query(&b, e);
      }
      add_set_commit(&b, 0, RandomOwnedPart());
      u.batches.push_back(std::move(b));
      break;
    }
  }
  return u;
}

std::string EncodeUnit(const Unit& u) {
  std::string out;
  for (const Batch& b : u.batches) {
    for (const net::Request& r : b.reqs) net::EncodeRequest(r, &out);
  }
  return out;
}

// --- percentiles ------------------------------------------------------------------

namespace {
size_t Rank(size_t n, double p) {
  auto r = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<size_t>(r, 1, n);
}
}  // namespace

uint64_t Quantile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[Rank(sorted.size(), p) - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - Rank(n, p);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace e2e
}  // namespace kimdb

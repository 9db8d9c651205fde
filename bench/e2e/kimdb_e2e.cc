// kimdb_e2e: the end-to-end benchmark of a served KIMDB.
//
// One process loads a database through the public Database API, serves it
// from an in-process net::Server with default ServerOptions, and drives it
// over TCP with kConnections closed-loop client threads, one connection
// each, no think time: each connection waits for the reply to its unit of
// work before issuing the next, as a CAx design session does (paper §3.3).
//
//   kimdb_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--dir DIR] [--smoke]
//
// Untraced runs (--trace 0) fork a child that sets up, warms up, measures,
// checkpoints, runs a fixed tail of units and then SIGKILLs itself without
// Close(); the parent times Database::Open on copies of the leftover files
// (recovery_s) and verifies every acknowledged write. Traced runs
// (--trace 1) alternate untraced and traced windows, stop the server,
// replay the same seeded streams in-process with a span around every
// public call, and print the per-layer metrics. See README.md for every
// metric's definition.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "harness.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

#ifndef KIMDB_E2E_GIT_SHA
#define KIMDB_E2E_GIT_SHA "unknown"
#endif
#ifndef KIMDB_E2E_BUILD_TYPE
#define KIMDB_E2E_BUILD_TYPE "unknown"
#endif

namespace kimdb {
namespace e2e {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t) {
  int64_t d = t - NowNs();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

double UsOf(uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Options {
  Workload workload = Workload::kTraverseCold;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string dir = "/tmp";
  bool smoke = false;
  double warmup_s = 3;
};

/// Set-up is timed several times per untraced run and reported as the
/// median: at least 3 times, and again while the trials so far took under
/// 2 s in total (at most 15); once under --smoke.
bool MoreSetups(const Options& o, size_t done, double spent_s) {
  if (o.smoke) return done < 1;
  return done < 3 || (spent_s < 2.0 && done < 15);
}

/// Recovery is timed on fresh copies of the crashed files, at least 5 times
/// and again until the trials span 3 s of wall time (at most 40), and
/// reported as the fastest: the open is deterministic work, while a shared
/// VM has phases of half a second or more in which everything runs up to
/// ~70% slower, which a median of back-to-back trials inherits whole.
bool MoreRecoveries(const Options& o, size_t done, double elapsed_s) {
  if (o.smoke) return done < 1;
  return done < 5 || (elapsed_s < 3.0 && done < 40);
}

/// Ordered flat JSON object writer.
class Json {
 public:
  Json& Num(const std::string& k, double v) { return Raw(k, JsonNumber(v)); }
  Json& Int(const std::string& k, uint64_t v) {
    return Raw(k, std::to_string(v));
  }
  Json& Str(const std::string& k, const std::string& v) {
    std::string quoted(1, '"');
    quoted += obs::JsonEscape(v);
    quoted += '"';
    return Raw(k, quoted);
  }
  Json& Bool(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  Json& Raw(const std::string& k, const std::string& raw) {
    s_ += s_.empty() ? "{\"" : ", \"";
    s_ += obs::JsonEscape(k);
    s_ += "\": ";
    s_ += raw;
    return *this;
  }
  std::string Done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) out += (out.size() > 1 ? ", " : "") + JsonNumber(x);
  return out + "]";
}

// ---------------------------------------------------------------------------
// Set-up: open, load, index, analyze, checkpoint, serve
// ---------------------------------------------------------------------------

struct AttrIds {
  AttrId part_id = 0, x = 0, y = 0, connections = 0;
  AttrId name = 0, location = 0, weight = 0, manufacturer = 0, payload = 0;
};

struct Served {
  std::unique_ptr<Database> db;
  std::unique_ptr<net::Server> server;
  AttrIds attrs;
  std::vector<ClassId> classes;  // every loaded class
};

std::string DbPath(const Options& o) {
  return o.dir + "/kimdb_e2e_" + WorkloadName(o.workload) + "_" +
         std::to_string(::getpid());
}

void RemoveDb(const std::string& path) {
  ::remove((path + ".db").c_str());
  ::remove((path + ".wal").c_str());
}

Result<AttrId> AttrOf(Database* db, ClassId cls, const char* name) {
  KIMDB_ASSIGN_OR_RETURN(const AttributeDef* def,
                         db->catalog().ResolveAttr(cls, name));
  return def->id;
}

constexpr size_t kLoadBatch = 1000;  // objects per load transaction

Status LoadParts(Database* db, Model* m, Served* s) {
  const Oo1Graph& g = m->graph;
  KIMDB_ASSIGN_OR_RETURN(
      ClassId part,
      db->CreateClass("Part", {},
                      {{"PartId", Domain::Int()},
                       {"X", Domain::Int()},
                       {"Y", Domain::Int()},
                       {"Connections",
                        Domain::SetOf(Domain::Ref(kRootClassId))}}));
  s->classes = {part};
  m->part_oids.assign(g.n, 0);
  for (size_t i = 0; i < g.n; i += kLoadBatch) {
    KIMDB_ASSIGN_OR_RETURN(uint64_t txn, db->Begin());
    for (size_t j = i; j < std::min(g.n, i + kLoadBatch); ++j) {
      KIMDB_ASSIGN_OR_RETURN(
          Oid oid, db->Insert(txn, "Part",
                              {{"PartId", Value::Int(static_cast<int64_t>(j))},
                               {"X", Value::Int(g.x[j])},
                               {"Y", Value::Int(g.y[j])}}));
      m->part_oids[j] = oid.raw();
    }
    KIMDB_RETURN_IF_ERROR(db->Commit(txn));
  }
  // Second pass: the connections are forward references.
  for (size_t i = 0; i < g.n; i += kLoadBatch) {
    KIMDB_ASSIGN_OR_RETURN(uint64_t txn, db->Begin());
    for (size_t j = i; j < std::min(g.n, i + kLoadBatch); ++j) {
      std::vector<Value> refs;
      for (uint32_t t : g.connections[j]) {
        refs.push_back(Value::Ref(Oid(m->part_oids[t])));
      }
      KIMDB_RETURN_IF_ERROR(db->Set(txn, Oid(m->part_oids[j]), "Connections",
                                    Value::List(std::move(refs))));
    }
    KIMDB_RETURN_IF_ERROR(db->Commit(txn));
  }
  if (m->workload != Workload::kCommitBurst) {
    KIMDB_RETURN_IF_ERROR(
        db->indexes().CreateIndex(IndexKind::kSingleClass, part, {"PartId"})
            .status());
  }
  if (m->workload == Workload::kOo1Mixed) {
    KIMDB_RETURN_IF_ERROR(db->AnalyzeClass("Part"));
  }
  KIMDB_ASSIGN_OR_RETURN(s->attrs.part_id, AttrOf(db, part, "PartId"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.x, AttrOf(db, part, "X"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.y, AttrOf(db, part, "Y"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.connections,
                         AttrOf(db, part, "Connections"));
  return Status::OK();
}

Status LoadVehicles(Database* db, Model* m, Served* s) {
  const VehicleData& v = m->vehicles;
  KIMDB_ASSIGN_OR_RETURN(
      ClassId company,
      db->CreateClass("Company", {},
                      {{"Name", Domain::String()},
                       {"Location", Domain::String()}}));
  KIMDB_ASSIGN_OR_RETURN(
      ClassId vehicle,
      db->CreateClass("Vehicle", {},
                      {{"Weight", Domain::Int()},
                       {"Manufacturer", Domain::Ref(company)}}));
  KIMDB_ASSIGN_OR_RETURN(ClassId automobile,
                         db->CreateClass("Automobile", {"Vehicle"}, {}));
  KIMDB_ASSIGN_OR_RETURN(
      ClassId domestic,
      db->CreateClass("DomesticAutomobile", {"Automobile"}, {}));
  KIMDB_ASSIGN_OR_RETURN(
      ClassId truck,
      db->CreateClass("Truck", {"Vehicle"}, {{"Payload", Domain::Int()}}));
  s->classes = {company, vehicle, automobile, domestic, truck};

  m->company_oids.clear();
  KIMDB_ASSIGN_OR_RETURN(uint64_t txn, db->Begin());
  for (size_t i = 0; i < v.company_location.size(); ++i) {
    KIMDB_ASSIGN_OR_RETURN(
        Oid oid,
        db->Insert(txn, "Company",
                   {{"Name", Value::Str("company-" + std::to_string(i))},
                    {"Location", Value::Str(v.company_location[i])}}));
    m->company_oids.push_back(oid.raw());
  }
  KIMDB_RETURN_IF_ERROR(db->Commit(txn));
  m->vehicle_oids.assign(v.vehicles.size(), 0);
  for (size_t i = 0; i < v.vehicles.size(); i += kLoadBatch) {
    KIMDB_ASSIGN_OR_RETURN(uint64_t t, db->Begin());
    for (size_t j = i; j < std::min(v.vehicles.size(), i + kLoadBatch); ++j) {
      const VehicleData::Row& r = v.vehicles[j];
      std::vector<std::pair<std::string, Value>> attrs = {
          {"Weight", Value::Int(r.weight)},
          {"Manufacturer", Value::Ref(Oid(m->company_oids[r.company]))}};
      if (r.cls == VehicleData::kTruck) {
        attrs.emplace_back("Payload", Value::Int(r.payload));
      }
      KIMDB_ASSIGN_OR_RETURN(
          Oid oid, db->Insert(t, VehicleData::kClassNames[r.cls], attrs));
      m->vehicle_oids[j] = oid.raw();
    }
    KIMDB_RETURN_IF_ERROR(db->Commit(t));
  }
  KIMDB_RETURN_IF_ERROR(db->indexes()
                            .CreateIndex(IndexKind::kClassHierarchy, vehicle,
                                         {"Weight"})
                            .status());
  KIMDB_RETURN_IF_ERROR(db->indexes()
                            .CreateIndex(IndexKind::kNested, vehicle,
                                         {"Manufacturer", "Location"})
                            .status());
  KIMDB_RETURN_IF_ERROR(db->AnalyzeClass("Vehicle"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.name, AttrOf(db, company, "Name"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.location, AttrOf(db, company, "Location"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.weight, AttrOf(db, vehicle, "Weight"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.manufacturer,
                         AttrOf(db, vehicle, "Manufacturer"));
  KIMDB_ASSIGN_OR_RETURN(s->attrs.payload, AttrOf(db, truck, "Payload"));
  return Status::OK();
}

/// One timed set-up, from Database::Open until the server listens.
Result<Served> Setup(const std::string& path, Model* m, double* seconds) {
  RemoveDb(path);
  Served s;
  int64_t t0 = NowNs();
  DatabaseOptions opts;
  opts.path = path;
  KIMDB_ASSIGN_OR_RETURN(s.db, Database::Open(opts));
  if (UsesParts(m->workload)) {
    KIMDB_RETURN_IF_ERROR(LoadParts(s.db.get(), m, &s));
  } else {
    KIMDB_RETURN_IF_ERROR(LoadVehicles(s.db.get(), m, &s));
  }
  KIMDB_RETURN_IF_ERROR(s.db->Checkpoint());
  KIMDB_ASSIGN_OR_RETURN(s.server,
                         net::Server::Start(s.db.get(), net::ServerOptions{}));
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return s;
}

void Teardown(Served* s, const std::string& path) {
  if (s->server) s->server->Stop();
  s->server.reset();
  if (s->db) (void)s->db->Close();
  s->db.reset();
  RemoveDb(path);
}

/// Encoded bytes of the objects as the load supplied them (the
/// denominator of space_amp).
uint64_t UserBytes(const Model& m, const AttrIds& a) {
  uint64_t total = 0;
  std::string buf;
  auto add = [&](const Object& o) {
    buf.clear();
    o.EncodeTo(&buf);
    total += buf.size();
  };
  if (UsesParts(m.workload)) {
    for (size_t i = 0; i < m.graph.n; ++i) {
      Object o{Oid(m.part_oids[i])};
      o.Set(a.part_id, Value::Int(static_cast<int64_t>(i)));
      o.Set(a.x, Value::Int(m.graph.x[i]));
      o.Set(a.y, Value::Int(m.graph.y[i]));
      std::vector<Value> refs;
      for (uint32_t t : m.graph.connections[i]) {
        refs.push_back(Value::Ref(Oid(m.part_oids[t])));
      }
      o.Set(a.connections, Value::List(std::move(refs)));
      add(o);
    }
    return total;
  }
  const VehicleData& v = m.vehicles;
  for (size_t i = 0; i < v.company_location.size(); ++i) {
    Object o{Oid(m.company_oids[i])};
    o.Set(a.name, Value::Str("company-" + std::to_string(i)));
    o.Set(a.location, Value::Str(v.company_location[i]));
    add(o);
  }
  for (size_t i = 0; i < v.vehicles.size(); ++i) {
    Object o{Oid(m.vehicle_oids[i])};
    o.Set(a.weight, Value::Int(v.vehicles[i].weight));
    o.Set(a.manufacturer,
          Value::Ref(Oid(m.company_oids[v.vehicles[i].company])));
    if (v.vehicles[i].cls == VehicleData::kTruck) {
      o.Set(a.payload, Value::Int(v.vehicles[i].payload));
    }
    add(o);
  }
  return total;
}

uint64_t FileBytes(const std::string& file) {
  struct stat st {};
  return ::stat(file.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// ---------------------------------------------------------------------------
// Response checks
// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(const Model* m, const AttrIds& a) : m_(m), a_(a) {}

  /// Returns an empty string when `resp` is the correct answer to the
  /// request `e` describes, else what is wrong. `full` compares a query
  /// result OID by OID; otherwise only its size is checked.
  std::string Check(const net::Request& req, const Expect& e,
                    const net::Response& resp, bool full) const {
    if (resp.type != req.type) return "response type out of order";
    if (resp.status != StatusCode::kOk) {
      return std::string(ReqKindName(e.kind)) + " failed: " + resp.message;
    }
    switch (e.kind) {
      case ReqKind::kGet:
        return CheckPart(resp.object_bytes, e.part);
      case ReqKind::kQuery: {
        if (e.query == QueryKind::kPartId) {
          if (resp.oids.size() != 1 ||
              resp.oids[0] != m_->part_oids[static_cast<size_t>(e.a)]) {
            return "point query did not return exactly its one OID";
          }
          return "";
        }
        if (resp.oids.size() != m_->AnswerSize(e)) {
          return "query returned " + std::to_string(resp.oids.size()) +
                 " rows, model has " + std::to_string(m_->AnswerSize(e)) +
                 ": " + QueryText(e);
        }
        if (full) {
          std::vector<uint64_t> got = resp.oids;
          std::sort(got.begin(), got.end());
          if (got != m_->Answer(e)) return "query rows differ: " + QueryText(e);
        }
        return "";
      }
      case ReqKind::kBegin:
        return resp.u64 == 0 ? "BEGIN returned txn 0" : "";
      case ReqKind::kSet:
      case ReqKind::kCommit:
        return "";
    }
    return "unknown request";
  }

 private:
  std::string CheckPart(const std::string& bytes, uint32_t part) const {
    Result<Object> obj = Object::Decode(bytes);
    if (!obj.ok()) return "GET image does not decode";
    if (obj->oid().raw() != m_->part_oids[part]) return "GET returned another OID";
    const Value& id = obj->Get(a_.part_id);
    if (id.kind() != Value::Kind::kInt || id.as_int() != part) {
      return "GET PartId mismatch";
    }
    const Value& conns = obj->Get(a_.connections);
    if (!conns.is_collection() || conns.elements().size() != 3) {
      return "GET Connections missing";
    }
    for (size_t c = 0; c < 3; ++c) {
      const Value& ref = conns.elements()[c];
      if (ref.kind() != Value::Kind::kRef ||
          ref.as_ref().raw() != m_->part_oids[m_->graph.connections[part][c]]) {
        return "GET Connections differ from the generated graph";
      }
    }
    return "";
  }

  const Model* m_;
  AttrIds a_;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint32_t conn;
  uint64_t seq;  // request id = (conn, seq)
  uint64_t txn;
  int64_t start_ns, end_ns;
  int64_t parent;  // index of the parent in the same log, -1 for roots
};

/// Spans kept in memory and written out at exit. Past `cap` they are
/// counted, not stored; the per-layer metrics are aggregated on the fly
/// from every span, kept or not.
class SpanLog {
 public:
  static constexpr size_t kCap = 20000;
  int64_t Add(const Span& s) {
    if (spans_.size() >= kCap) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(s);
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void SetEnd(int64_t idx, int64_t end_ns) {
    if (idx >= 0) spans_[static_cast<size_t>(idx)].end_ns = end_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Served windows: closed-loop clients over TCP
// ---------------------------------------------------------------------------

struct WindowStats {
  std::array<std::vector<uint64_t>, kReqKinds> req_ns;
  std::array<std::vector<uint64_t>, kQueryKinds> query_ns;  // by QueryKind
  std::vector<uint64_t> unit_ns;
  uint64_t completed = 0;  // responses that arrived inside the window
  // Responses by whole second since the first window opened.
  std::vector<uint64_t> completed_by_second;
  double seconds = 0;
};

/// Back-to-back measured windows after the warm-up, each untraced or
/// traced; stats are kept per kind of window, so alternating short windows
/// cancel drift between the two. A unit belongs to the window its first
/// write falls in; a response counts towards the throughput of the window
/// it arrives in.
struct Schedule {
  std::vector<int64_t> bounds;  // window i is [bounds[i], bounds[i+1])
  std::vector<bool> traced;     // per window
  uint64_t max_units = UINT64_MAX;  // per connection
  /// 0 untraced, 1 traced, -1 outside every window (warm-up).
  int KindAt(int64_t t) const {
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      if (t >= bounds[i] && t < bounds[i + 1]) return traced[i] ? 1 : 0;
    }
    return -1;
  }
  int64_t end() const { return bounds.back(); }
};

struct ConnResult {
  std::array<WindowStats, 2> kinds;  // untraced, traced
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<uint32_t, int64_t>> acked;  // (part, X) in ack order
  SpanLog spans;

  void Fail(const std::string& why, uint64_t n = 1) {
    failed += n;
    if (errors.size() < 5) errors.push_back(why);
  }
};

/// Every 16th query-mix result is compared row by row with the model.
constexpr uint64_t kFullCheckEvery = 16;

void RunConnection(uint16_t port, const Model& model, const Checker& checker,
                   uint64_t seed, uint32_t conn, const Schedule& sched,
                   ConnResult* out) {
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out->attempted += 1;
    out->Fail("connect: " + client.status().ToString());
    return;
  }
  StreamGen gen(&model, seed, conn);
  std::string frames;
  std::vector<net::Response> resps;
  std::vector<int64_t> arrive;
  uint64_t seq = 0, queries = 0;
  for (uint64_t units = 0; units < sched.max_units; ++units) {
    const int64_t unit_t0 = NowNs();
    if (unit_t0 >= sched.end()) break;
    const int kind = sched.KindAt(unit_t0);
    const bool traced = kind == 1;
    int64_t unit_span = -1;
    if (traced) {
      unit_span = out->spans.Add({"client.unit", conn, seq, 0, unit_t0, 0, -1});
    }
    Unit unit = gen.Next();
    uint64_t txns[4] = {};
    for (Batch& b : unit.batches) {
      if (b.binds_txns) {
        for (net::Request& r : b.reqs) r.txn = txns[r.txn];
      }
      frames.clear();
      for (const net::Request& r : b.reqs) net::EncodeRequest(r, &frames);
      resps.clear();
      arrive.clear();
      const int64_t t0 = NowNs();
      Status sent = client->get()->SendRaw(frames);
      for (size_t i = 0; sent.ok() && i < b.reqs.size(); ++i) {
        Result<net::Response> r = client->get()->ReceiveResponse();
        arrive.push_back(NowNs());
        if (!r.ok()) {
          sent = r.status();
          break;
        }
        resps.push_back(std::move(*r));
      }
      out->attempted += b.reqs.size();
      if (!sent.ok()) {
        // The connection is gone: every request not answered is failed.
        out->Fail("connection: " + sent.ToString(),
                  b.reqs.size() - resps.size());
        return;
      }
      for (size_t i = 0; i < b.reqs.size(); ++i) {
        int ak = sched.KindAt(arrive[i]);
        if (ak >= 0) {
          WindowStats& ws = out->kinds[ak];
          ws.completed++;
          size_t sec = static_cast<size_t>((arrive[i] - sched.bounds.front()) /
                                           1'000'000'000);
          if (ws.completed_by_second.size() <= sec) {
            ws.completed_by_second.resize(sec + 1);
          }
          ws.completed_by_second[sec]++;
        }
        const Expect& e = b.expect[i];
        if (kind >= 0) {
          const uint64_t ns = static_cast<uint64_t>(arrive[i] - t0);
          out->kinds[kind].req_ns[static_cast<int>(e.kind)].push_back(ns);
          if (e.kind == ReqKind::kQuery) {
            out->kinds[kind].query_ns[static_cast<int>(e.query)].push_back(ns);
          }
        }
        if (traced) {
          out->spans.Add({ReqKindName(e.kind), conn, seq + i, b.reqs[i].txn,
                          t0, arrive[i], unit_span});
        }
      }
      seq += b.reqs.size();
      // Checks run after every response of the batch is timestamped.
      for (size_t i = 0; i < b.reqs.size(); ++i) {
        const Expect& e = b.expect[i];
        bool full = e.kind == ReqKind::kQuery && queries++ % kFullCheckEvery == 0;
        std::string err = checker.Check(b.reqs[i], e, resps[i], full);
        if (!err.empty()) {
          out->Fail(err);
          continue;
        }
        if (e.kind == ReqKind::kBegin) txns[i] = resps[i].u64;
        if (e.kind == ReqKind::kCommit) out->acked.emplace_back(e.part, e.value);
      }
    }
    const int64_t unit_t1 = NowNs();
    if (kind >= 0) {
      out->kinds[kind].unit_ns.push_back(
          static_cast<uint64_t>(unit_t1 - unit_t0));
    }
    out->spans.SetEnd(unit_span, unit_t1);
  }
}

struct ServeResult {
  std::array<WindowStats, 2> kinds;  // merged over connections, sorted
  obs::MetricsSnapshot reg;          // registry diff over all windows
  double peak_rss_mb = 0;            // at the start of the first window
  std::vector<ConnResult> conns;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Warm-up, then `windows` measured windows of `window_s` seconds each,
/// traced where `traced` says; returns when every client thread has
/// finished its last unit (no transaction is left open).
ServeResult Serve(Served* s, const Model& model, const Options& o,
                  double window_s, const std::vector<bool>& traced) {
  Schedule sched;
  sched.traced = traced;
  int64_t t = NowNs() + static_cast<int64_t>(o.warmup_s * 1e9);
  sched.bounds.push_back(t);
  for (size_t i = 0; i < traced.size(); ++i) {
    t += static_cast<int64_t>(window_s * 1e9);
    sched.bounds.push_back(t);
  }
  Checker checker(&model, s->attrs);
  ServeResult res;
  res.conns.resize(kConnections);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, s->server->port(), std::cref(model),
                         std::cref(checker), o.seed, c, std::cref(sched),
                         &res.conns[c]);
  }
  SleepUntilNs(sched.bounds.front());
  // Sampled before the window's latency samples accumulate, so the
  // harness's own sample buffers never count as the database's memory.
  res.peak_rss_mb = PeakRssMb();
  obs::MetricsSnapshot before = s->db->metrics().TakeSnapshot();
  SleepUntilNs(sched.end());
  res.reg = obs::MetricsRegistry::Diff(before, s->db->metrics().TakeSnapshot());
  for (std::thread& th : threads) th.join();

  for (size_t w = 0; w < traced.size(); ++w) {
    res.kinds[traced[w] ? 1 : 0].seconds += window_s;
  }
  for (ConnResult& c : res.conns) {
    for (int k = 0; k < 2; ++k) {
      WindowStats& dst = res.kinds[k];
      WindowStats& src = c.kinds[k];
      for (int r = 0; r < kReqKinds; ++r) {
        dst.req_ns[r].insert(dst.req_ns[r].end(), src.req_ns[r].begin(),
                             src.req_ns[r].end());
        std::vector<uint64_t>().swap(src.req_ns[r]);
      }
      for (int q = 0; q < kQueryKinds; ++q) {
        dst.query_ns[q].insert(dst.query_ns[q].end(), src.query_ns[q].begin(),
                               src.query_ns[q].end());
      }
      dst.unit_ns.insert(dst.unit_ns.end(), src.unit_ns.begin(),
                         src.unit_ns.end());
      dst.completed += src.completed;
      if (dst.completed_by_second.size() < src.completed_by_second.size()) {
        dst.completed_by_second.resize(src.completed_by_second.size());
      }
      for (size_t i = 0; i < src.completed_by_second.size(); ++i) {
        dst.completed_by_second[i] += src.completed_by_second[i];
      }
    }
    res.attempted += c.attempted;
    res.failed += c.failed;
    for (auto& e : c.errors) res.errors.push_back(e);
  }
  for (WindowStats& k : res.kinds) {
    for (auto& v : k.req_ns) std::sort(v.begin(), v.end());
    for (auto& v : k.query_ns) std::sort(v.begin(), v.end());
    std::sort(k.unit_ns.begin(), k.unit_ns.end());
  }
  return res;
}

/// `units` more units per connection from a stream of its own, outside
/// every window: after a checkpoint, they are the log recovery replays.
std::vector<ConnResult> RunTail(Served* s, const Model& model,
                                const Options& o, uint64_t units) {
  constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  Schedule sched;
  sched.bounds = {kNever, kNever};
  sched.traced = {false};
  sched.max_units = units;
  Checker checker(&model, s->attrs);
  std::vector<ConnResult> conns(kConnections);
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, s->server->port(), std::cref(model),
                         std::cref(checker), o.seed + 0x9e3779b97f4a7c15ull, c,
                         std::cref(sched), &conns[c]);
  }
  for (std::thread& th : threads) th.join();
  return conns;
}

std::vector<uint64_t> AllRequests(const WindowStats& w) {
  std::vector<uint64_t> all;
  for (const auto& v : w.req_ns) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  return all;
}

/// Tail percentiles the benchmark reports; README.md explains the choice.
constexpr double kReqTail = 0.99;
constexpr double kUnitTail = 0.95;

std::string LatencyJson(const std::vector<uint64_t>& sorted, double tail) {
  Json j;
  j.Int("n", sorted.size());
  if (sorted.empty()) return j.Done();
  uint64_t sum = 0;
  for (uint64_t v : sorted) sum += v;
  j.Num("p50_us", UsOf(Quantile(sorted, 0.5)));
  j.Num("tail_p", tail);
  j.Num("tail_us", UsOf(Quantile(sorted, tail)));
  j.Bool("tail_supported", TailSupported(sorted.size(), tail));
  j.Num("mean_us", static_cast<double>(sum) / 1000.0 /
                       static_cast<double>(sorted.size()));
  return j.Done();
}

std::string WindowDetail(const WindowStats& w) {
  Json j;
  j.Num("seconds", w.seconds);
  j.Num("ops_per_s", static_cast<double>(w.completed) / w.seconds);
  j.Raw("ops_by_second", JsonArray(std::vector<double>(
                             w.completed_by_second.begin(),
                             w.completed_by_second.end())));
  j.Num("txn_per_s",
        static_cast<double>(w.req_ns[static_cast<int>(ReqKind::kCommit)].size()) /
            w.seconds);
  j.Raw("all", LatencyJson(AllRequests(w), kReqTail));
  j.Raw("unit", LatencyJson(w.unit_ns, kUnitTail));
  for (int k = 0; k < kReqKinds; ++k) {
    if (w.req_ns[k].empty()) continue;
    j.Raw(ReqKindName(static_cast<ReqKind>(k)), LatencyJson(w.req_ns[k], kReqTail));
  }
  for (int q = 0; q < kQueryKinds; ++q) {
    if (w.query_ns[q].empty()) continue;
    j.Raw(std::string("query.") + QueryKindName(static_cast<QueryKind>(q)),
          LatencyJson(w.query_ns[q], kReqTail));
  }
  return j.Done();
}

// ---------------------------------------------------------------------------
// Host metadata
// ---------------------------------------------------------------------------

std::string FsType(const std::string& dir) {
  struct statfs fs {};
  if (::statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string MetaJson(const Options& o) {
  struct utsname u {};
  ::uname(&u);
  DatabaseOptions dbo;
  Json j;
  j.Str("git_sha", KIMDB_E2E_GIT_SHA);
  j.Str("build_type", KIMDB_E2E_BUILD_TYPE);
  j.Int("nproc", std::thread::hardware_concurrency());
  j.Str("kernel", std::string(u.sysname) + " " + u.release);
  j.Str("data_dir_fs", FsType(o.dir));
  j.Int("buffer_pool_bytes", dbo.buffer_pool_pages * kPageSize);
  j.Int("object_cache_bytes", dbo.object_cache_bytes);
  j.Int("server_workers", net::ServerOptions{}.workers);
  j.Int("connections", kConnections);
  j.Str("loop", "closed, no think time");
  j.Str("flush_policy", "group-commit leader fdatasync");
  j.Str("workload", WorkloadName(o.workload));
  j.Int("seed", o.seed);
  j.Num("measured_s", o.seconds);
  j.Num("warmup_s", o.warmup_s);
  j.Bool("trace", o.trace);
  j.Bool("smoke", o.smoke);
  return Json().Raw("meta", j.Done()).Done();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Prints the detail line and then, last, the result line; returns the exit
/// code (1 when any request failed or any check found a wrong answer).
int PrintResult(const std::string& detail, uint64_t attempted, uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::cout << Json().Raw("detail", detail).Done() << "\n";
  Json m;
  for (const Metric& x : metrics) {
    m.Raw(x.name, Json().Num("value", x.value).Str("unit", x.unit).Done());
  }
  const bool correct = failed == 0;
  std::cout << Json()
                   .Bool("correct", correct)
                   .Int("attempted", attempted)
                   .Int("failed", failed)
                   .Raw("metrics", m.Done())
                   .Done()
            << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Untraced run: child serves and dies by SIGKILL, parent recovers
// ---------------------------------------------------------------------------

/// The child reports to the parent through this file, one record a line.
std::string StatePath(const std::string& db_path) { return db_path + ".state"; }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

[[noreturn]] void ChildMain(const Options& o, const std::string& path) {
  std::ofstream state(StatePath(path));
  auto fatal = [&](const std::string& why) {
    state << "fatal " << why << "\n";
    state.close();
    std::_Exit(3);
  };
  Model model = Model::Generate(o.workload, SizesFor(o.workload, o.smoke),
                                o.seed);
  std::vector<double> setup_s;
  double spent = 0;
  Served s;
  while (MoreSetups(o, setup_s.size(), spent)) {
    if (!setup_s.empty()) Teardown(&s, path);
    double secs = 0;
    Result<Served> r = Setup(path, &model, &secs);
    if (!r.ok()) fatal("setup: " + r.status().ToString());
    s = std::move(*r);
    setup_s.push_back(secs);
    spent += secs;
  }
  const double space_amp =
      Ratio(static_cast<double>(FileBytes(path + ".db")),
            static_cast<double>(UserBytes(model, s.attrs)));

  ServeResult res = Serve(&s, model, o, o.seconds, {false});
  const WindowStats& w = res.kinds[0];
  std::vector<uint64_t> all = AllRequests(w);

  state.precision(17);
  for (double v : setup_s) state << "setup " << v << "\n";
  state << "metric ops_per_s " << static_cast<double>(w.completed) / w.seconds
        << "\n";
  state << "metric req_p50_us " << UsOf(Quantile(all, 0.5)) << "\n";
  state << "metric req_p99_us " << UsOf(Quantile(all, kReqTail)) << "\n";
  state << "metric unit_p50_us " << UsOf(Quantile(w.unit_ns, 0.5)) << "\n";
  state << "metric unit_p95_us " << UsOf(Quantile(w.unit_ns, kUnitTail))
        << "\n";
  state << "metric space_amp " << space_amp << "\n";
  state << "metric peak_rss_mb " << res.peak_rss_mb << "\n";
  state << "detail " << WindowDetail(w) << "\n";

  // Recovery replays a log of fixed size: checkpoint, then a fixed tail of
  // units, whatever throughput the window reached.
  Status cp = s.db->Checkpoint();
  if (!cp.ok()) fatal("checkpoint: " + cp.ToString());
  std::vector<ConnResult> tail = RunTail(&s, model, o, TailUnits(o.workload));
  uint64_t attempted = res.attempted, failed = res.failed;
  std::vector<std::string> errors = res.errors;
  for (const ConnResult& c : tail) {
    attempted += c.attempted;
    failed += c.failed;
    errors.insert(errors.end(), c.errors.begin(), c.errors.end());
  }
  state << "attempted " << attempted << "\n";
  state << "failed " << failed << "\n";
  for (const std::string& e : errors) state << "error " << e << "\n";

  // What the reopened database must hold: every part's last acknowledged
  // X (all of them on the writing workloads, every 16th otherwise).
  if (UsesParts(o.workload)) {
    std::vector<int64_t> expect_x = model.graph.x;
    for (const std::vector<ConnResult>* conns : {&res.conns, &tail}) {
      for (const ConnResult& c : *conns) {
        for (auto [part, x] : c.acked) expect_x[part] = x;
      }
    }
    const size_t step = Writes(o.workload) ? 1 : 16;
    for (size_t i = 0; i < model.graph.n; i += step) {
      state << "check " << model.part_oids[i] << " X " << expect_x[i] << "\n";
    }
  } else {
    for (size_t i = 0; i < model.vehicles.vehicles.size(); i += 16) {
      state << "check " << model.vehicle_oids[i] << " Weight "
            << model.vehicles.vehicles[i].weight << "\n";
    }
  }
  state << "done\n";
  state.close();
  // Crash with the server running: no Close(), no checkpoint after the tail.
  ::kill(::getpid(), SIGKILL);
  std::_Exit(4);  // unreachable
}

struct ChildReport {
  std::vector<double> setup_s;
  std::map<std::string, double> metrics;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::string detail = "{}";
  struct CheckRec {
    uint64_t oid;
    std::string attr;
    int64_t value;
  };
  std::vector<CheckRec> checks;
  bool done = false;
  std::string fatal;
};

ChildReport ReadReport(const std::string& file) {
  ChildReport r;
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    std::string rest = line.size() > tag.size() ? line.substr(tag.size() + 1) : "";
    if (tag == "setup") {
      r.setup_s.push_back(std::stod(rest));
    } else if (tag == "metric") {
      std::string name;
      double v = 0;
      ls >> name >> v;
      r.metrics[name] = v;
    } else if (tag == "attempted") {
      ls >> r.attempted;
    } else if (tag == "failed") {
      ls >> r.failed;
    } else if (tag == "error") {
      r.errors.push_back(rest);
    } else if (tag == "detail") {
      r.detail = rest;
    } else if (tag == "check") {
      ChildReport::CheckRec c;
      ls >> c.oid >> c.attr >> c.value;
      r.checks.push_back(c);
    } else if (tag == "done") {
      r.done = true;
    } else if (tag == "fatal") {
      r.fatal = rest;
    }
  }
  return r;
}

/// Checks every recorded value in the reopened database; returns the number
/// of mismatches.
uint64_t Verify(Database* db, const ChildReport& rep,
                std::vector<std::string>* errors) {
  uint64_t bad = 0;
  for (const ChildReport::CheckRec& c : rep.checks) {
    Result<Object> obj = db->store().Get(Oid(c.oid));
    std::string why;
    if (!obj.ok()) {
      why = "lost object " + Oid(c.oid).ToString();
    } else {
      Result<const AttributeDef*> def =
          db->catalog().ResolveAttr(obj->class_id(), c.attr);
      const Value& v = def.ok() ? obj->Get((*def)->id) : Value();
      if (v.kind() != Value::Kind::kInt || v.as_int() != c.value) {
        why = "after recovery " + Oid(c.oid).ToString() + "." + c.attr +
              " != last acknowledged " + std::to_string(c.value);
      }
    }
    if (!why.empty() && bad++ < 5) errors->push_back(why);
  }
  return bad;
}

/// Times Database::Open on fresh copies of the files the crashed child
/// left, verifying the first; `open_s` gets every trial's time. Returns the
/// number of values recovery lost (all of them if the database does not
/// open).
uint64_t Recover(const Options& o, const std::string& path,
                 const ChildReport& rep, std::vector<double>* open_s,
                 std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  const std::string crashed = path + ".crashed";
  for (const char* ext : {".db", ".wal"}) {
    std::error_code ec;
    fs::rename(path + ext, crashed + ext, ec);
  }
  uint64_t lost = 0;
  const int64_t start = NowNs();
  while (MoreRecoveries(o, open_s->size(),
                        static_cast<double>(NowNs() - start) / 1e9)) {
    for (const char* ext : {".db", ".wal"}) {
      std::error_code ec;
      fs::copy_file(crashed + ext, path + ext,
                    fs::copy_options::overwrite_existing, ec);
    }
    DatabaseOptions opts;
    opts.path = path;
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<Database>> db = Database::Open(opts);
    const double secs = static_cast<double>(NowNs() - t0) / 1e9;
    if (!db.ok()) {
      errors->push_back("reopen: " + db.status().ToString());
      lost = rep.checks.size();
      break;
    }
    if (open_s->empty()) lost = Verify(db->get(), rep, errors);
    open_s->push_back(secs);
    (void)(*db)->Close();
    db->reset();
    RemoveDb(path);
  }
  RemoveDb(path);
  RemoveDb(crashed);
  return lost;
}

int UntracedMain(const Options& o) {
  const std::string path = DbPath(o);
  ::remove(StatePath(path).c_str());
  std::cout.flush();
  const pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) {
    std::cerr << "fork failed\n";
    return 2;
  }
  if (pid == 0) {
    // The child must not outlive an interrupted parent.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(5);
    ChildMain(o, path);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) {
    std::cerr << "waitpid failed\n";
    return 2;
  }
  ChildReport rep = ReadReport(StatePath(path));
  ::remove(StatePath(path).c_str());
  if (!rep.fatal.empty() || !rep.done || !WIFSIGNALED(status) ||
      WTERMSIG(status) != SIGKILL) {
    std::cerr << "benchmark child did not finish: "
              << (rep.fatal.empty() ? "status " + std::to_string(status)
                                    : rep.fatal)
              << "\n";
    RemoveDb(path);
    return 2;
  }
  std::vector<double> open_s;
  std::vector<std::string> errors = rep.errors;
  const uint64_t lost = Recover(o, path, rep, &open_s, &errors);
  const uint64_t failed = rep.failed + lost;
  const uint64_t attempted = rep.attempted + rep.checks.size();
  for (const std::string& e : errors) std::cerr << "error: " << e << "\n";

  std::map<std::string, double> m = rep.metrics;
  const double recovery_s =
      open_s.empty() ? 0.0 : *std::min_element(open_s.begin(), open_s.end());
  return PrintResult(Json()
                         .Raw("window", rep.detail)
                         .Raw("setup_s_trials", JsonArray(rep.setup_s))
                         .Raw("recovery_s_trials", JsonArray(open_s))
                         .Int("recovery_checks", rep.checks.size())
                         .Int("recovery_mismatches", lost)
                         .Done(),
                     attempted, failed,
                     {{"setup_s", Median(rep.setup_s), "s"},
                      {"ops_per_s", m["ops_per_s"], "1/s"},
                      {"req_p50_us", m["req_p50_us"], "us"},
                      {"req_p99_us", m["req_p99_us"], "us"},
                      {"unit_p50_us", m["unit_p50_us"], "us"},
                      {"unit_p95_us", m["unit_p95_us"], "us"},
                      {"recovery_s", recovery_s, "s"},
                      {"space_amp", m["space_amp"], "ratio"},
                      {"peak_rss_mb", m["peak_rss_mb"], "MB"}});
}

// ---------------------------------------------------------------------------
// Traced run: served windows with client spans, then an in-process replay
// ---------------------------------------------------------------------------

enum SpanName {
  kOp,
  kEncodeRequest,
  kDecodeRequest,
  kEncodeResponse,
  kDecodeResponse,
  kObjectGet,
  kParse,
  kPlan,
  kExecute,
  kTxnBegin,
  kTxnSet,
  kTxnCommit,
  kSpanNames
};
constexpr const char* kSpanNameText[kSpanNames] = {
    "replay.op",         "net.EncodeRequest",  "net.DecodeRequest",
    "net.EncodeResponse", "net.DecodeResponse", "ObjectStore::Get",
    "Parser::ParseStatement", "QueryEngine::Plan",
    "QueryEngine::Execute", "Database::Begin",  "Database::Set",
    "Database::Commit"};

struct ReplayStats {
  std::array<uint64_t, kSpanNames> count{}, sum_ns{};
  std::vector<uint64_t> op_ns;
  uint64_t op_self_ns = 0, ops_over_10pct = 0;
  // Operation time and its unattributed (self) part, by request type byte.
  std::array<uint64_t, 16> by_type_ns{}, by_type_self_ns{};
  // exec::ExecContext counters of replayed queries.
  uint64_t queries = 0, index_planned = 0, index_probed = 0;
  uint64_t plans_considered = 0, examined = 0, results = 0, pages = 0;
  uint64_t ref_fetches = 0, probes = 0, exec_self_ns = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  SpanLog spans;

  double MeanUs(SpanName n) const {
    return count[n] ? UsOf(sum_ns[n]) / static_cast<double>(count[n]) : 0.0;
  }
  void Merge(const ReplayStats& o) {
    for (int i = 0; i < kSpanNames; ++i) {
      count[i] += o.count[i];
      sum_ns[i] += o.sum_ns[i];
    }
    op_ns.insert(op_ns.end(), o.op_ns.begin(), o.op_ns.end());
    op_self_ns += o.op_self_ns;
    ops_over_10pct += o.ops_over_10pct;
    for (size_t i = 0; i < by_type_ns.size(); ++i) {
      by_type_ns[i] += o.by_type_ns[i];
      by_type_self_ns[i] += o.by_type_self_ns[i];
    }
    queries += o.queries;
    index_planned += o.index_planned;
    index_probed += o.index_probed;
    plans_considered += o.plans_considered;
    examined += o.examined;
    results += o.results;
    pages += o.pages;
    ref_fetches += o.ref_fetches;
    probes += o.probes;
    exec_self_ns += o.exec_self_ns;
    attempted += o.attempted;
    failed += o.failed;
    for (auto& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// Runs one request the way Server::Execute would, with a span around
/// every public call, and returns the response as the client would decode
/// it. Child spans only take timestamps while the operation runs; their
/// accounting happens after its span closes, so the operation's self time
/// is the harness glue between the calls and nothing else.
class Replayer {
 public:
  Replayer(Database* db, uint32_t conn, ReplayStats* st)
      : db_(db), conn_(conn), st_(st) {}

  net::Response Run(const net::Request& req, uint64_t seq) {
    n_children_ = 0;
    query_ = {};
    object_.reset();
    frame_.clear();
    out_.clear();
    net::Response resp;
    resp.type = req.type;
    std::optional<Result<net::Request>> decoded;
    std::optional<Result<net::Response>> back;

    Time(kEncodeRequest, [&] { net::EncodeRequest(req, &frame_); });
    Time(kDecodeRequest, [&] {
      decoded = net::DecodeRequest(
          std::string_view(frame_).substr(net::kFrameHeaderBytes));
    });
    if (!decoded->ok()) {
      Fail(decoded->status(), &resp);
    } else {
      Execute(**decoded, &resp);
    }
    // Building the response frame includes serializing a fetched object,
    // as Server::Execute does before the frame is encoded.
    Time(kEncodeResponse, [&] {
      if (object_) (*object_)->EncodeTo(&resp.object_bytes);
      net::EncodeResponse(resp, &out_);
    });
    Time(kDecodeResponse, [&] {
      back = net::DecodeResponse(
          std::string_view(out_).substr(net::kFrameHeaderBytes));
    });
    // The operation spans its first child's start to its last child's end.
    Account(req.type, seq, req.txn, children_[0].t0,
            children_[n_children_ - 1].t1);
    if (!back->ok()) {
      net::Response bad;
      bad.type = req.type;
      bad.status = back->status().code();
      return bad;
    }
    return std::move(**back);
  }

 private:
  struct Child {
    SpanName name;
    int64_t t0, t1;
  };
  // exec::ExecContext counters of the current query.
  struct QueryCounters {
    bool ran = false, index_plan = false;
    uint64_t plans_considered = 0, examined = 0, results = 0, pages = 0;
    uint64_t ref_fetches = 0, probes = 0, plan_ns = 0, exec_ns = 0;
  };

  /// Runs `fn` inside a child span of the current operation; returns its
  /// duration.
  template <typename Fn>
  uint64_t Time(SpanName name, Fn&& fn) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t t1 = NowNs();
    if (n_children_ < children_.size()) children_[n_children_++] = {name, t0, t1};
    return static_cast<uint64_t>(t1 - t0);
  }

  void Account(net::MsgType type, uint64_t seq, uint64_t txn, int64_t op0,
               int64_t op1) {
    const uint64_t dur = static_cast<uint64_t>(op1 - op0);
    uint64_t children_ns = 0;
    int64_t root = st_->spans.Add({kSpanNameText[kOp], conn_, seq, txn, op0, op1, -1});
    for (size_t i = 0; i < n_children_; ++i) {
      const Child& c = children_[i];
      const uint64_t d = static_cast<uint64_t>(c.t1 - c.t0);
      st_->count[c.name]++;
      st_->sum_ns[c.name] += d;
      children_ns += d;
      if (root >= 0) {
        st_->spans.Add({kSpanNameText[c.name], conn_, seq, txn, c.t0, c.t1, root});
      }
    }
    const uint64_t self = dur > children_ns ? dur - children_ns : 0;
    st_->count[kOp]++;
    st_->sum_ns[kOp] += dur;
    st_->op_ns.push_back(dur);
    st_->op_self_ns += self;
    st_->by_type_ns[static_cast<uint8_t>(type)] += dur;
    st_->by_type_self_ns[static_cast<uint8_t>(type)] += self;
    if (self * 10 > dur) st_->ops_over_10pct++;
    if (query_.ran) {
      st_->queries++;
      st_->plans_considered += query_.plans_considered;
      if (query_.index_plan) {
        st_->index_planned++;
        if (query_.probes > 0) st_->index_probed++;
      }
      st_->examined += query_.examined;
      st_->results += query_.results;
      st_->pages += query_.pages;
      st_->ref_fetches += query_.ref_fetches;
      st_->probes += query_.probes;
      // Execute plans again internally; its self time excludes that.
      st_->exec_self_ns +=
          query_.exec_ns > query_.plan_ns ? query_.exec_ns - query_.plan_ns : 0;
    }
  }

  void Execute(const net::Request& req, net::Response* resp) {
    switch (req.type) {
      case net::MsgType::kGet: {
        std::optional<Result<Object>> obj;
        Time(kObjectGet, [&] { obj = db_->store().Get(Oid(req.oid)); });
        if (!obj->ok()) return Fail(obj->status(), resp);
        object_ = std::move(*obj);
        return;
      }
      case net::MsgType::kQuery: {
        std::optional<Result<lang::Statement>> stmt;
        Time(kParse, [&] { stmt = db_->parser().ParseStatement(req.text); });
        if (!stmt->ok()) return Fail(stmt->status(), resp);
        const Query& q = (*stmt)->query;
        std::optional<Result<QueryPlan>> plan;
        query_.plan_ns = Time(kPlan, [&] { plan = db_->query_engine().Plan(q); });
        if (!plan->ok()) return Fail(plan->status(), resp);
        std::optional<exec::ExecContext> ctx;
        std::optional<Result<std::vector<Oid>>> oids;
        query_.exec_ns = Time(kExecute, [&] {
          ctx.emplace(&db_->buffer_pool());
          oids = db_->query_engine().Execute(q, &*ctx);
          if (oids->ok()) {
            for (Oid oid : **oids) resp->oids.push_back(oid.raw());
          }
        });
        if (!oids->ok()) return Fail(oids->status(), resp);
        constexpr auto kRelaxed = std::memory_order_relaxed;
        query_.ran = true;
        query_.index_plan = (*plan)->index_scan;
        query_.plans_considered = (*plan)->plans_considered;
        query_.examined = ctx->objects_scanned.load(kRelaxed) +
                          ctx->index_candidates.load(kRelaxed);
        query_.results = (*oids)->size();
        query_.pages = ctx->pages_hit() + ctx->pages_missed();
        query_.ref_fetches = ctx->ref_fetches.load(kRelaxed);
        query_.probes = ctx->index_probes.load(kRelaxed);
        return;
      }
      case net::MsgType::kTxnBegin: {
        std::optional<Result<uint64_t>> txn;
        Time(kTxnBegin, [&] { txn = db_->Begin(); });
        if (!txn->ok()) return Fail(txn->status(), resp);
        resp->u64 = **txn;
        return;
      }
      case net::MsgType::kTxnSet: {
        Status st;
        Time(kTxnSet,
             [&] { st = db_->Set(req.txn, Oid(req.oid), req.text, req.value); });
        if (!st.ok()) Fail(st, resp);
        return;
      }
      case net::MsgType::kTxnCommit: {
        Status st;
        Time(kTxnCommit, [&] { st = db_->Commit(req.txn); });
        if (!st.ok()) Fail(st, resp);
        return;
      }
      default:
        return Fail(Status::NotSupported("request type"), resp);
    }
  }

  static void Fail(const Status& st, net::Response* resp) {
    resp->status = st.code();
    resp->message = st.message();
  }

  Database* db_;
  uint32_t conn_;
  ReplayStats* st_;
  std::array<Child, 8> children_{};
  size_t n_children_ = 0;
  std::string frame_, out_;  // reused wire buffers
  std::optional<Result<Object>> object_;  // a GET's object, encoded into
                                          // the response
  QueryCounters query_;
};

void ReplayConnection(Database* db, const Model& model, const Checker& checker,
                      uint64_t seed, uint32_t conn, int64_t deadline,
                      ReplayStats* st) {
  StreamGen gen(&model, seed, conn);
  Replayer rp(db, conn, st);
  uint64_t seq = 0, queries = 0;
  while (NowNs() < deadline) {
    Unit unit = gen.Next();
    uint64_t txns[4] = {};
    for (Batch& b : unit.batches) {
      if (b.binds_txns) {
        for (net::Request& r : b.reqs) r.txn = txns[r.txn];
      }
      for (size_t i = 0; i < b.reqs.size(); ++i) {
        net::Response resp = rp.Run(b.reqs[i], seq++);
        st->attempted++;
        const Expect& e = b.expect[i];
        bool full = e.kind == ReqKind::kQuery && queries++ % kFullCheckEvery == 0;
        std::string err = checker.Check(b.reqs[i], e, resp, full);
        if (!err.empty()) {
          st->failed++;
          if (st->errors.size() < 5) st->errors.push_back("replay: " + err);
        }
        if (e.kind == ReqKind::kBegin) txns[i] = resp.u64;
      }
    }
  }
}

void WriteSpans(const std::string& file, const Options& o,
                const std::vector<const SpanLog*>& served,
                const std::vector<const SpanLog*>& replay, int64_t base) {
  std::ofstream out(file);
  auto dump = [&](const std::vector<const SpanLog*>& logs, uint64_t* dropped) {
    bool first = true;
    for (const SpanLog* log : logs) {
      *dropped += log->dropped();
      for (const Span& s : log->spans()) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << Json()
                   .Str("name", s.name)
                   .Str("req", std::to_string(s.conn) + ":" +
                                   std::to_string(s.seq))
                   .Int("txn", s.txn)
                   .Raw("parent", std::to_string(s.parent))
                   .Raw("start_ns", std::to_string(s.start_ns - base))
                   .Raw("dur_ns", std::to_string(s.end_ns - s.start_ns))
                   .Done();
      }
    }
  };
  uint64_t dropped = 0;
  out << "{\"workload\": \"" << WorkloadName(o.workload)
      << "\", \"seed\": " << o.seed
      << ", \"note\": \"parent indexes the same connection's list\""
      << ", \"served\": [";
  dump(served, &dropped);
  out << "],\n\"replay\": [";
  dump(replay, &dropped);
  out << "],\n\"dropped\": " << dropped << "}\n";
}

int TracedMain(const Options& o) {
  const std::string path = DbPath(o);
  Model model = Model::Generate(o.workload, SizesFor(o.workload, o.smoke),
                                o.seed);
  double setup_s = 0;
  Result<Served> r = Setup(path, &model, &setup_s);
  if (!r.ok()) {
    std::cerr << "setup: " << r.status().ToString() << "\n";
    RemoveDb(path);
    return 2;
  }
  Served s = std::move(*r);
  uint64_t extent_pages = 0, objects = 0;
  for (ClassId c : s.classes) {
    Result<std::vector<PageId>> pages = s.db->store().ExtentPages(c);
    if (pages.ok()) extent_pages += pages->size();
    objects += s.db->store().LiveCount(c);
  }

  // Untraced and traced windows in repeated ABBA order, so a linear drift
  // weighs on both kinds equally and the host's slow phases (about half a
  // second) average out.
  std::vector<bool> order;
  for (int i = 0; i < 5; ++i) order.insert(order.end(), {false, true, true, false});
  const double window_s = o.seconds / static_cast<double>(order.size());
  ServeResult served = Serve(&s, model, o, window_s, order);
  s.server->Stop();

  const double replay_s = std::max(1.0, o.seconds / 2);
  Checker checker(&model, s.attrs);
  std::vector<ReplayStats> per(kConnections);
  const int64_t deadline = NowNs() + static_cast<int64_t>(replay_s * 1e9);
  {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(ReplayConnection, s.db.get(), std::cref(model),
                           std::cref(checker), o.seed, c, deadline, &per[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  ReplayStats rp;
  for (const ReplayStats& p : per) rp.Merge(p);
  std::sort(rp.op_ns.begin(), rp.op_ns.end());

  const WindowStats& plain = served.kinds[0];
  const WindowStats& traced = served.kinds[1];
  const obs::MetricsSnapshot& reg = served.reg;
  // In a closed loop throughput is connections / mean unit time, so the
  // tracing cost on ops_per_s is the rise in mean unit time; units belong to
  // the window they start in, so window edges add no noise.
  auto mean = [](const std::vector<uint64_t>& v) {
    double sum = 0;
    for (uint64_t x : v) sum += static_cast<double>(x);
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  const double plain_unit = mean(plain.unit_ns);
  const double traced_unit = mean(traced.unit_ns);
  std::vector<uint64_t> plain_all = AllRequests(plain);
  auto val = [&reg](const char* name) {
    return static_cast<double>(reg.Value(name));
  };
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  const double committed = val("txn.committed");
  const double gets =
      d(plain.req_ns[static_cast<int>(ReqKind::kGet)].size() +
        traced.req_ns[static_cast<int>(ReqKind::kGet)].size());
  const double q = d(rp.queries);
  const double bp_hits = val("bufferpool.hits");
  const double bp_misses = val("bufferpool.misses");
  const double oc_hits = val("objectstore.cache_hits");
  const double oc_misses = val("objectstore.cache_misses");
  const double codec_ns =
      d(rp.sum_ns[kEncodeRequest] + rp.sum_ns[kDecodeRequest] +
        rp.sum_ns[kEncodeResponse] + rp.sum_ns[kDecodeResponse]);

  const std::vector<Metric> metrics = {
      {"net.codec_ns_per_req", Ratio(codec_ns, d(rp.count[kOp])), "ns"},
      {"net.server_request_us_mean",
       reg.Hist("net.request_ns").Mean() / 1000.0, "us"},
      {"net.wire_overhead_us",
       UsOf(Quantile(plain_all, 0.5)) - UsOf(Quantile(rp.op_ns, 0.5)), "us"},
      {"net.pipeline_depth_mean", reg.Hist("net.pipeline_depth").Mean(),
       "count"},
      {"net.bytes_per_req",
       Ratio(val("net.bytes_in") + val("net.bytes_out"), val("net.requests")),
       "B"},
      {"lang.parse_us_mean", rp.MeanUs(kParse), "us"},
      {"query.plan_us_mean", rp.MeanUs(kPlan), "us"},
      {"query.plans_considered_mean", Ratio(d(rp.plans_considered), q),
       "count"},
      {"query.index_exec_ratio",
       Ratio(d(rp.index_probed), d(rp.index_planned)), "ratio"},
      {"query.est_rows_error_pct",
       reg.Hist("optimizer.est_rows_error_pct").Mean(), "%"},
      {"exec.self_us_mean", Ratio(UsOf(rp.exec_self_ns), q), "us"},
      {"exec.rows_examined_per_result", Ratio(d(rp.examined), d(rp.results)),
       "ratio"},
      {"exec.pages_per_query", Ratio(d(rp.pages), q), "count"},
      {"exec.ref_fetches_per_query", Ratio(d(rp.ref_fetches), q), "count"},
      {"index.probes_per_query", Ratio(d(rp.probes), q), "count"},
      {"object.get_us_mean", rp.MeanUs(kObjectGet), "us"},
      {"object.cache_hit_ratio", Ratio(oc_hits, oc_hits + oc_misses), "ratio"},
      {"object.versions_installed_per_commit",
       Ratio(val("objectstore.versions_installed"), committed), "count"},
      {"object.class_write_waits_per_commit",
       Ratio(val("objectstore.class_write_waits"), committed), "count"},
      {"storage.bufferpool.hit_ratio", Ratio(bp_hits, bp_hits + bp_misses),
       "ratio"},
      {"storage.bufferpool.misses_per_get", Ratio(bp_misses, gets), "count"},
      {"storage.extent_pages_per_1k_objects",
       Ratio(d(extent_pages) * 1000.0, d(objects)), "count"},
      {"txn.begin_us_mean", rp.MeanUs(kTxnBegin), "us"},
      {"txn.set_us_mean", rp.MeanUs(kTxnSet), "us"},
      {"txn.commit_us_mean", rp.MeanUs(kTxnCommit), "us"},
      {"txn.lock_wait_us_per_commit",
       Ratio(d(reg.Hist("lock.wait_ns").sum) / 1000.0, committed), "us"},
      {"storage.wal.fsyncs_per_commit", Ratio(val("wal.fsyncs"), committed),
       "count"},
      {"storage.wal.group_commit_batch_mean",
       reg.Hist("wal.group_commit_batch").Mean(), "count"},
      {"storage.wal.fsync_us_mean", reg.Hist("wal.fsync_ns").Mean() / 1000.0,
       "us"},
      {"storage.wal.append_us_mean",
       reg.Hist("wal.append_ns").Mean() / 1000.0, "us"},
      {"storage.wal.reserve_us_mean",
       reg.Hist("wal.reserve_ns").Mean() / 1000.0, "us"},
      {"storage.wal.bytes_per_commit", Ratio(val("wal.file_bytes"), committed),
       "B"},
      {"trace_overhead_pct",
       Ratio(traced_unit - plain_unit, plain_unit) * 100.0, "%"},
      {"trace.unattributed_pct",
       Ratio(d(rp.op_self_ns), d(rp.sum_ns[kOp])) * 100.0, "%"},
  };

  const std::string span_file = o.dir + "/spans-" + WorkloadName(o.workload) +
                                "-" + std::to_string(o.seed) + ".json";
  {
    std::vector<const SpanLog*> served_logs, replay_logs;
    for (const ConnResult& c : served.conns) served_logs.push_back(&c.spans);
    for (const ReplayStats& p : per) replay_logs.push_back(&p.spans);
    int64_t base = served.conns[0].spans.spans().empty()
                       ? 0
                       : served.conns[0].spans.spans()[0].start_ns;
    WriteSpans(span_file, o, served_logs, replay_logs, base);
  }

  Teardown(&s, path);

  for (const std::string& e : served.errors) std::cerr << "error: " << e << "\n";
  for (const std::string& e : rp.errors) std::cerr << "error: " << e << "\n";

  Json spans;
  for (int i = 0; i < kSpanNames; ++i) {
    if (rp.count[i] == 0) continue;
    spans.Raw(kSpanNameText[i], Json()
                                    .Int("n", rp.count[i])
                                    .Num("mean_us", rp.MeanUs(static_cast<SpanName>(i)))
                                    .Done());
  }
  // Share of each operation type's span its child spans leave uncovered.
  Json unattributed;
  for (size_t t = 0; t < rp.by_type_ns.size(); ++t) {
    if (rp.by_type_ns[t] == 0) continue;
    unattributed.Num(std::to_string(t),
                     100.0 * static_cast<double>(rp.by_type_self_ns[t]) /
                         static_cast<double>(rp.by_type_ns[t]));
  }
  return PrintResult(
      Json()
          .Raw("untraced_window", WindowDetail(plain))
          .Raw("traced_window", WindowDetail(traced))
          .Num("replay_s", replay_s)
          .Int("replay_ops", rp.count[kOp])
          .Int("replay_ops_self_over_10pct", rp.ops_over_10pct)
          .Raw("replay_unattributed_pct_by_msg_type", unattributed.Done())
          .Raw("replay_spans", spans.Done())
          .Num("setup_s", setup_s)
          .Str("span_file", span_file)
          .Done(),
      served.attempted + rp.attempted, served.failed + rp.failed, metrics);
}

// ---------------------------------------------------------------------------

int Usage(const char* why) {
  std::cerr << "kimdb_e2e: " << why
            << "\nusage: kimdb_e2e --workload "
               "traverse-cold|query-mix|commit-burst|oo1-mixed [--seed N] "
               "[--seconds S] [--trace 0|1] [--dir DIR] [--smoke]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" &&
        a != "--trace" && a != "--dir") {
      return Usage(("unknown argument " + a).c_str());
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + a).c_str());
    char* end = nullptr;
    if (a == "--workload") {
      auto w = ParseWorkload(v);
      if (!w) return Usage(("unknown workload " + std::string(v)).c_str());
      o.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) return Usage("--seconds must be > 0");
    } else if (a == "--trace") {
      if (std::string(v) != "0" && std::string(v) != "1") {
        return Usage("--trace takes 0 or 1");
      }
      o.trace = std::string(v) == "1";
    } else if (a == "--dir") {
      o.dir = v;
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (o.smoke) {
    o.warmup_s = 0;
  }
  std::cout << MetaJson(o) << "\n";
  return o.trace ? TracedMain(o) : UntracedMain(o);
}

}  // namespace
}  // namespace e2e
}  // namespace kimdb

int main(int argc, char** argv) { return kimdb::e2e::Main(argc, argv); }

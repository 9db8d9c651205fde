#ifndef KIMDB_BENCH_E2E_HARNESS_H_
#define KIMDB_BENCH_E2E_HARNESS_H_

// The engine-independent half of kimdb_e2e: seeded data generators, the
// in-memory model every response is checked against, the per-connection
// request streams, and exact order-statistic percentiles. Nothing here
// touches a Database, so the harness tests run without a server.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.h"

namespace kimdb {
namespace e2e {

/// splitmix64: the benchmark's own generator, so a change to the engine's
/// util/random.h can never change the inputs the benchmark feeds it.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Double() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

enum class Workload { kTraverseCold, kQueryMix, kCommitBurst, kOo1Mixed };

inline constexpr std::array<Workload, 4> kAllWorkloads = {
    Workload::kTraverseCold, Workload::kQueryMix, Workload::kCommitBurst,
    Workload::kOo1Mixed};

const char* WorkloadName(Workload w);
std::optional<Workload> ParseWorkload(std::string_view name);
/// The OO1 part graph backs every workload except query-mix.
inline bool UsesParts(Workload w) { return w != Workload::kQueryMix; }
/// Workloads whose units commit transactions.
inline bool Writes(Workload w) {
  return w == Workload::kCommitBurst || w == Workload::kOo1Mixed;
}

/// Closed-loop client connections (one thread each).
inline constexpr uint32_t kConnections = 4;

/// Database sizes of one workload.
struct Sizes {
  size_t parts = 0;      // OO1 workloads
  size_t companies = 0;  // query-mix
  size_t vehicles = 0;   // query-mix
};
/// Full sizes, or tiny ones for `--smoke`.
Sizes SizesFor(Workload w, bool smoke);
/// Units per connection run after the post-window checkpoint, so the log
/// recovery replays has a fixed size (none for the read-only workloads).
uint64_t TailUnits(Workload w);

// ---------------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------------

/// OO1 (Cattell's "simple database operations"): every part has exactly 3
/// outgoing connections; 90% go to one of the nearest 1% of parts (by part
/// index, wrapping), 10% to a uniformly random part.
struct Oo1Graph {
  size_t n = 0;
  std::vector<std::array<uint32_t, 3>> connections;
  std::vector<int64_t> x, y;

  static Oo1Graph Generate(size_t n, uint64_t seed);
  /// Whether connection c of part i went to the local zone (for tests).
  bool IsLocal(size_t i, size_t c) const;
};

/// The paper's Figure 1 vehicle schema, reduced to what the query mix
/// touches: Company(Name, Location) and Vehicle(Weight, Manufacturer) with
/// subclasses Automobile, DomesticAutomobile (under Automobile) and
/// Truck(Payload).
struct VehicleData {
  static constexpr const char* kClassNames[4] = {
      "Vehicle", "Automobile", "DomesticAutomobile", "Truck"};
  static constexpr int kTruck = 3;

  std::vector<std::string> company_location;  // "Detroit" or "City-<n>"
  struct Row {
    int cls = 0;  // index into kClassNames (round-robin)
    int64_t weight = 0;
    uint32_t company = 0;
    int64_t payload = 0;  // trucks only
  };
  std::vector<Row> vehicles;

  static VehicleData Generate(size_t companies, size_t vehicles,
                              uint64_t seed);
  bool Detroit(uint32_t company) const {
    return company_location[company] == "Detroit";
  }
};

// ---------------------------------------------------------------------------
// Requests and their expected responses
// ---------------------------------------------------------------------------

enum class ReqKind : uint8_t { kGet, kQuery, kBegin, kSet, kCommit };
inline constexpr int kReqKinds = 5;
const char* ReqKindName(ReqKind k);

enum class QueryKind : uint8_t {
  kPartId,       // select Part where PartId = a
  kWeightEq,     // select Vehicle where Weight = a
  kWeightRange,  // select Vehicle where Weight >= a and Weight < b
  kHeavyDetroit, // select Vehicle where Weight > a and
                 //   Manufacturer.Location = 'Detroit'
  kTruckPayload, // select Truck where Payload >= a
};
inline constexpr int kQueryKinds = 5;
const char* QueryKindName(QueryKind k);

/// What one request must return. The stream is generated from the model
/// alone, so it is fully determined by the seed; the client checks every
/// response against this.
struct Expect {
  ReqKind kind = ReqKind::kGet;
  uint32_t part = 0;  // kGet / kSet / kCommit: part index
  QueryKind query = QueryKind::kPartId;
  int64_t a = 0, b = 0;  // query parameters
  int64_t value = 0;     // kSet / kCommit: the X written (and acknowledged)
};

/// One pipelined write: every request is sent before any response is read.
/// In a batch whose requests carry transactions, Request::txn holds the
/// slot index of the BEGIN (in the previous batch) until the client binds
/// it to the server-assigned id.
struct Batch {
  std::vector<net::Request> reqs;
  std::vector<Expect> expect;
  bool binds_txns = false;
};

/// One unit of work: a traversal, a query, a commit round or a mixed round.
struct Unit {
  std::vector<Batch> batches;
};

/// Everything the stream generator and the response checks need: the
/// generated data plus the OIDs the load assigned.
struct Model {
  Workload workload = Workload::kTraverseCold;
  Oo1Graph graph;
  VehicleData vehicles;
  std::vector<uint64_t> part_oids;     // by part index
  std::vector<uint64_t> vehicle_oids;  // by vehicle index
  std::vector<uint64_t> company_oids;  // by company index
  // Precomputed answer indexes for the query mix.
  std::vector<std::pair<int64_t, uint32_t>> by_weight;   // (weight, vehicle)
  std::vector<std::pair<int64_t, uint32_t>> by_payload;  // trucks only

  /// Generates the data of `w` at `sizes` from `seed` (OIDs still empty).
  static Model Generate(Workload w, const Sizes& sizes, uint64_t seed);

  /// Exact result size of a query (binary search; cheap enough to check
  /// on every response).
  size_t AnswerSize(const Expect& e) const;
  /// Exact sorted result OIDs of a query.
  std::vector<uint64_t> Answer(const Expect& e) const;
};

/// OQL text of a query request.
std::string QueryText(const Expect& e);

/// The request stream of one connection. Connection c writes only the parts
/// whose index is congruent to c modulo kConnections, so transactions of
/// different connections never conflict and the last acknowledged value of
/// every part is known.
class StreamGen {
 public:
  StreamGen(const Model* model, uint64_t seed, uint32_t conn);
  Unit Next();

 private:
  void AddTraversal(Unit* u, int depth);
  uint32_t RandomOwnedPart();

  const Model* model_;
  uint32_t conn_;
  Rng rng_;
  uint64_t writes_ = 0;  // makes every written value distinct
};

/// Wire bytes of a unit as generated (transactions still unbound).
std::string EncodeUnit(const Unit& u);

// ---------------------------------------------------------------------------
// Exact percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank p-quantile of ascending `sorted` (p in (0, 1]): the sample
/// of rank ceil(p * n). Returns 0 for an empty input.
uint64_t Quantile(const std::vector<uint64_t>& sorted, double p);
/// Samples strictly above the p-quantile's rank.
size_t SamplesBeyond(size_t n, double p);
/// A tail percentile is reported only with at least this many samples
/// beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;
inline bool TailSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

/// A number formatted with every digit needed to read it back exactly.
std::string JsonNumber(double v);

}  // namespace e2e
}  // namespace kimdb

#endif  // KIMDB_BENCH_E2E_HARNESS_H_

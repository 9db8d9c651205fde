// Wire protocol + epoll server tests: framing round-trips, torn/partial
// I/O, oversized-frame and garbage rejection, pipelining order, the
// pipeline window's pause/resume, a slow reader's EAGAIN continuation,
// half-close, concurrent multi-connection commits with visibility,
// drain-on-shutdown durability, and disconnect-aborts-transactions. The
// whole file runs under TSan via scripts/tsan_ctest.sh.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "model/object.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

namespace kimdb {
namespace net {
namespace {

// --- protocol-only tests (no sockets) --------------------------------------

// Strips the frame header and decodes the payload back.
Result<Request> ReDecodeRequest(const Request& req) {
  std::string frame;
  EncodeRequest(req, &frame);
  EXPECT_GE(frame.size(), kFrameHeaderBytes + 1);
  return DecodeRequest(
      std::string_view(frame).substr(kFrameHeaderBytes));
}

Result<Response> ReDecodeResponse(const Response& resp) {
  std::string frame;
  EncodeResponse(resp, &frame);
  return DecodeResponse(
      std::string_view(frame).substr(kFrameHeaderBytes));
}

TEST(NetProtocolTest, RequestRoundTripEveryType) {
  Request hello;
  hello.type = MsgType::kHello;
  hello.text = "tester";
  auto h = ReDecodeRequest(hello);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h->type, MsgType::kHello);
  EXPECT_EQ(h->text, "tester");

  for (MsgType t : {MsgType::kPing, MsgType::kTxnBegin, MsgType::kMetrics}) {
    Request req;
    req.type = t;
    auto r = ReDecodeRequest(req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->type, t);
  }

  Request get;
  get.type = MsgType::kGet;
  get.oid = 0xDEADBEEFCAFEull;
  auto g = ReDecodeRequest(get);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->oid, 0xDEADBEEFCAFEull);

  for (MsgType t : {MsgType::kQuery, MsgType::kExplain}) {
    Request req;
    req.type = t;
    req.text = "select Part where Key = 5";
    auto r = ReDecodeRequest(req);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->type, t);
    EXPECT_EQ(r->text, "select Part where Key = 5");
  }

  Request set;
  set.type = MsgType::kTxnSet;
  set.txn = 42;
  set.oid = 7;
  set.text = "Weight";
  set.value = Value::Int(1234);
  auto s = ReDecodeRequest(set);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->txn, 42u);
  EXPECT_EQ(s->oid, 7u);
  EXPECT_EQ(s->text, "Weight");
  EXPECT_EQ(s->value, Value::Int(1234));

  for (MsgType t : {MsgType::kTxnCommit, MsgType::kTxnAbort}) {
    Request req;
    req.type = t;
    req.txn = 99;
    auto r = ReDecodeRequest(req);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->txn, 99u);
  }
}

TEST(NetProtocolTest, ResponseRoundTripEveryType) {
  Response hello;
  hello.type = MsgType::kHello;
  hello.text = "kimdb";
  auto h = ReDecodeResponse(hello);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->text, "kimdb");

  Response get;
  get.type = MsgType::kGet;
  get.object_bytes = std::string("\x00\x01\x02rawbytes", 11);
  auto g = ReDecodeResponse(get);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->object_bytes, get.object_bytes);

  Response query;
  query.type = MsgType::kQuery;
  query.oids = {1, 2, 0xFFFFFFFFFFFFull};
  auto q = ReDecodeResponse(query);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->oids, query.oids);

  Response begun;
  begun.type = MsgType::kTxnBegin;
  begun.u64 = 77;
  auto b = ReDecodeResponse(begun);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->u64, 77u);

  // Errors round-trip the status + message and drop the payload.
  Response err;
  err.type = MsgType::kTxnCommit;
  err.status = StatusCode::kNotFound;
  err.message = "no such transaction";
  auto e = ReDecodeResponse(err);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->status, StatusCode::kNotFound);
  EXPECT_EQ(e->message, "no such transaction");
}

TEST(NetProtocolTest, DecodeRejectsTrailingAndUnknown) {
  // Unknown type byte.
  std::string payload;
  PutFixed8(&payload, 200);
  EXPECT_TRUE(DecodeRequest(payload).status().IsCorruption());
  // Trailing bytes after a well-formed body.
  Request ping;
  std::string frame;
  EncodeRequest(ping, &frame);
  std::string body = frame.substr(kFrameHeaderBytes) + "x";
  EXPECT_TRUE(DecodeRequest(body).status().IsCorruption());
}

TEST(NetProtocolTest, FrameReaderReassemblesTornFeeds) {
  // Three frames fed one byte at a time must come out intact and in order.
  std::vector<Request> reqs(3);
  reqs[0].type = MsgType::kPing;
  reqs[1].type = MsgType::kQuery;
  reqs[1].text = "select Part";
  reqs[2].type = MsgType::kGet;
  reqs[2].oid = 5;
  std::string stream;
  for (const Request& r : reqs) EncodeRequest(r, &stream);

  FrameReader reader;
  std::vector<Request> out;
  for (char c : stream) {
    reader.Feed(&c, 1);
    std::string payload;
    auto got = reader.Next(&payload);
    ASSERT_TRUE(got.ok());
    if (*got) {
      auto req = DecodeRequest(payload);
      ASSERT_TRUE(req.ok());
      out.push_back(std::move(*req));
    }
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].type, MsgType::kPing);
  EXPECT_EQ(out[1].text, "select Part");
  EXPECT_EQ(out[2].oid, 5u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetProtocolTest, FrameReaderRejectsOversizedAndPoisons) {
  FrameReader reader(/*max_frame_bytes=*/64);
  std::string header;
  PutFixed32(&header, 65);  // one past the cap
  reader.Feed(header.data(), header.size());
  std::string payload;
  EXPECT_TRUE(reader.Next(&payload).status().IsCorruption());
  EXPECT_TRUE(reader.poisoned());
  // Poisoned stays poisoned even if valid bytes follow.
  Request ping;
  std::string frame;
  EncodeRequest(ping, &frame);
  reader.Feed(frame.data(), frame.size());
  EXPECT_TRUE(reader.Next(&payload).status().IsCorruption());

  FrameReader zero(/*max_frame_bytes=*/64);
  std::string zhdr;
  PutFixed32(&zhdr, 0);
  zero.Feed(zhdr.data(), zhdr.size());
  EXPECT_TRUE(zero.Next(&payload).status().IsCorruption());
}

// --- served tests -----------------------------------------------------------

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/kimdb_net_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    Cleanup();
    OpenAndServe();
  }

  void TearDown() override {
    server_.reset();
    db_.reset();
    Cleanup();
  }

  void Cleanup() {
    ::remove((base_ + ".db").c_str());
    ::remove((base_ + ".wal").c_str());
  }

  void OpenAndServe(ServerOptions sopts = {}) {
    server_.reset();
    db_.reset();
    DatabaseOptions opts;
    opts.path = base_;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    auto server = Server::Start(db_.get(), sopts);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  std::unique_ptr<Client> MustConnect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  // A Part class and `n` committed instances; returns their raw OID bits.
  std::vector<uint64_t> SeedParts(int n) {
    std::vector<uint64_t> oids;
    auto cls = db_->CreateClass(
        "Part", {}, {{"Key", Domain::Int()}, {"Weight", Domain::Int()}});
    EXPECT_TRUE(cls.ok()) << cls.status().ToString();
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    for (int i = 0; i < n; ++i) {
      auto oid = db_->Insert(*txn, "Part",
                             {{"Key", Value::Int(i)},
                              {"Weight", Value::Int(100 + i)}});
      EXPECT_TRUE(oid.ok()) << oid.status().ToString();
      oids.push_back(oid->raw());
    }
    EXPECT_TRUE(db_->Commit(*txn).ok());
    return oids;
  }

  // Fails a hung read after 10 s instead of blocking the test forever.
  static void SetReceiveTimeout(Client* client) {
    timeval tv{};
    tv.tv_sec = 10;
    ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                           sizeof(tv)),
              0);
  }

  // `n` GET frames back to back, cycling over `oids`.
  static std::string GetBurst(const std::vector<uint64_t>& oids, int n) {
    std::string burst;
    for (int i = 0; i < n; ++i) {
      Request get;
      get.type = MsgType::kGet;
      get.oid = oids[i % oids.size()];
      EncodeRequest(get, &burst);
    }
    return burst;
  }

  // Reads `n` responses to GetBurst(oids, n) and checks each names the OID
  // its request asked for, in request order.
  static void ExpectGetsInOrder(Client* client,
                                const std::vector<uint64_t>& oids, int n) {
    for (int i = 0; i < n; ++i) {
      auto resp = client->ReceiveResponse();
      ASSERT_TRUE(resp.ok()) << "response " << i << ": "
                             << resp.status().ToString();
      ASSERT_EQ(resp->type, MsgType::kGet) << "response " << i;
      ASSERT_EQ(resp->status, StatusCode::kOk) << resp->message;
      auto obj = Object::Decode(resp->object_bytes);
      ASSERT_TRUE(obj.ok()) << "response " << i;
      ASSERT_EQ(obj->oid().raw(), oids[i % oids.size()]) << "response " << i;
    }
  }

  uint64_t CounterValue(const std::string& name) {
    return db_->metrics().GetCounter(name)->value();
  }

  std::string base_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetServerTest, HelloPingGetQueryExplainMetrics) {
  std::vector<uint64_t> oids = SeedParts(10);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  auto banner = client->Hello("net_server_test");
  ASSERT_TRUE(banner.ok()) << banner.status().ToString();
  EXPECT_EQ(*banner, "kimdb");
  ASSERT_TRUE(client->Ping().ok());

  auto bytes = client->Get(oids[3]);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto obj = Object::Decode(*bytes);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->oid().raw(), oids[3]);

  auto rows = client->Query("select Part where Key >= 5");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 5u);

  auto plan = client->Explain("select Part where Key = 1");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Part"), std::string::npos);

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("net.requests"), std::string::npos);
  EXPECT_NE(metrics->find("net.connections"), std::string::npos);

  // Errors come back as statuses, not closed connections.
  auto missing = client->Get(Oid::Make(9999, 1).raw());
  EXPECT_FALSE(missing.ok());
  ASSERT_TRUE(client->Ping().ok());  // still alive
}

TEST_F(NetServerTest, WireTransactionCommitsAndIsVisible) {
  std::vector<uint64_t> oids = SeedParts(3);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  auto txn = client->Begin();
  ASSERT_TRUE(txn.ok()) << txn.status().ToString();
  ASSERT_TRUE(client->Set(*txn, oids[0], "Weight", Value::Int(7777)).ok());
  ASSERT_TRUE(client->Commit(*txn).ok());

  auto rows = client->Query("select Part where Weight = 7777");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], oids[0]);

  // Aborted work is invisible.
  auto txn2 = client->Begin();
  ASSERT_TRUE(txn2.ok());
  ASSERT_TRUE(client->Set(*txn2, oids[1], "Weight", Value::Int(8888)).ok());
  ASSERT_TRUE(client->Abort(*txn2).ok());
  auto gone = client->Query("select Part where Weight = 8888");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->empty());
}

TEST_F(NetServerTest, TornWritesAcrossFrameBoundaries) {
  std::vector<uint64_t> oids = SeedParts(2);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  // Two pipelined requests sent in 3-byte slices: the server's FrameReader
  // must reassemble across reads and answer both, in order.
  Request get;
  get.type = MsgType::kGet;
  get.oid = oids[1];
  Request query;
  query.type = MsgType::kQuery;
  query.text = "select Part where Key = 0";
  std::string stream;
  EncodeRequest(get, &stream);
  EncodeRequest(query, &stream);
  for (size_t off = 0; off < stream.size(); off += 3) {
    ASSERT_TRUE(
        client->SendRaw(std::string_view(stream).substr(off, 3)).ok());
  }
  auto first = client->ReceiveResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, MsgType::kGet);
  EXPECT_EQ(first->status, StatusCode::kOk);
  auto second = client->ReceiveResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, MsgType::kQuery);
  EXPECT_EQ(second->oids.size(), 1u);
}

TEST_F(NetServerTest, GarbageBytesCloseConnectionAndCount) {
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());
  uint64_t errors_before = CounterValue("net.protocol_errors");

  // A length prefix of ~4 GiB is far over the frame cap: the server counts
  // a protocol error and closes; the client sees EOF, not a crash.
  ASSERT_TRUE(client->SendRaw(std::string(16, '\xFF')).ok());
  auto resp = client->ReceiveResponse();
  EXPECT_FALSE(resp.ok());
  EXPECT_GE(CounterValue("net.protocol_errors"), errors_before + 1);

  // A well-framed payload with an unknown type byte also closes cleanly.
  auto client2 = MustConnect();
  ASSERT_NE(client2, nullptr);
  std::string bad;
  PutFixed32(&bad, 1);
  PutFixed8(&bad, 250);
  ASSERT_TRUE(client2->SendRaw(bad).ok());
  EXPECT_FALSE(client2->ReceiveResponse().ok());
  EXPECT_GE(CounterValue("net.protocol_errors"), errors_before + 2);

  // The server is still healthy for other connections.
  auto client3 = MustConnect();
  ASSERT_NE(client3, nullptr);
  EXPECT_TRUE(client3->Ping().ok());
}

TEST_F(NetServerTest, PipelinedResponsesArriveInRequestOrder) {
  std::vector<uint64_t> oids = SeedParts(8);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  // 60 mixed requests in one pipelined burst; responses must match the
  // request sequence one-for-one (the client checks type order, we check
  // the payloads tie to the right request).
  std::vector<Request> reqs;
  for (int i = 0; i < 20; ++i) {
    Request get;
    get.type = MsgType::kGet;
    get.oid = oids[i % oids.size()];
    reqs.push_back(get);
    Request ping;
    ping.type = MsgType::kPing;
    reqs.push_back(ping);
    Request query;
    query.type = MsgType::kQuery;
    query.text = "select Part where Key = " + std::to_string(i % 8);
    reqs.push_back(query);
  }
  auto resps = client->Pipeline(reqs);
  ASSERT_TRUE(resps.ok()) << resps.status().ToString();
  ASSERT_EQ(resps->size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Response& r = (*resps)[i];
    ASSERT_EQ(r.status, StatusCode::kOk) << r.message;
    if (reqs[i].type == MsgType::kGet) {
      auto obj = Object::Decode(r.object_bytes);
      ASSERT_TRUE(obj.ok());
      EXPECT_EQ(obj->oid().raw(), reqs[i].oid) << "response slot " << i;
    } else if (reqs[i].type == MsgType::kQuery) {
      ASSERT_EQ(r.oids.size(), 1u);
    }
  }
  // The burst registered on the pipeline-depth histogram.
  EXPECT_NE(db_->MetricsJson().find("net.pipeline_depth"), std::string::npos);
}

TEST_F(NetServerTest, PipelineBeyondWindowResumes) {
  OpenAndServe(ServerOptions{.max_pipeline = 8});
  std::vector<uint64_t> oids = SeedParts(10);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  SetReceiveTimeout(client.get());

  // 200 GETs in one write against an 8-request window: the server stops
  // reading at 8 unanswered requests and must resume every time half the
  // window has drained, or the tail of the burst is never answered.
  ASSERT_TRUE(client->SendRaw(GetBurst(oids, 200)).ok());
  ExpectGetsInOrder(client.get(), oids, 200);
}

TEST_F(NetServerTest, SlowReaderGetsEveryResponseInOrder) {
  auto cls = db_->CreateClass(
      "Blob", {}, {{"Key", Domain::Int()}, {"Body", Domain::String()}});
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  std::vector<uint64_t> oids;
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  for (int i = 0; i < 4; ++i) {
    auto oid = db_->Insert(*txn, "Blob",
                           {{"Key", Value::Int(i)},
                            {"Body", Value::Str(std::string(4096, 'a' + i))}});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    oids.push_back(oid->raw());
  }
  ASSERT_TRUE(db_->Commit(*txn).ok());

  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  SetReceiveTimeout(client.get());
  // A small receive buffer keeps the ~8 MiB of responses far beyond what
  // the loopback connection holds, so the server's sends hit EAGAIN and
  // the rest must leave on the socket's EPOLLOUT edges.
  int rcvbuf = 64 * 1024;
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  constexpr int kGets = 2000;
  ASSERT_TRUE(client->SendRaw(GetBurst(oids, kGets)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  ExpectGetsInOrder(client.get(), oids, kGets);
}

TEST_F(NetServerTest, NonReadingClientStopsNearTheWindow) {
  constexpr size_t kWindow = 8;
  OpenAndServe(ServerOptions{.max_pipeline = kWindow});
  auto cls = db_->CreateClass(
      "Blob", {}, {{"Key", Domain::Int()}, {"Body", Domain::String()}});
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  auto txn = db_->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = db_->Insert(*txn, "Blob",
                         {{"Key", Value::Int(0)},
                          {"Body", Value::Str(std::string(32 * 1024, 'b'))}});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  ASSERT_TRUE(db_->Commit(*txn).ok());

  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  int rcvbuf = 16 * 1024;
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  const uint64_t before = CounterValue("net.requests");
  constexpr uint64_t kGets = 2000;
  // The requests (~13 bytes each) fit in the socket buffers, but the send
  // runs on its own thread in case they do not: the server stops reading.
  std::thread writer([&] {
    (void)client->SendRaw(GetBurst({oid->raw()}, static_cast<int>(kGets)));
  });
  // Wait until the server stops taking requests.
  uint64_t served = 0;
  for (int stable = 0; stable < 20;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    uint64_t now = CounterValue("net.requests") - before;
    stable = now == served ? stable + 1 : 0;
    served = now;
  }
  // The client never reads. What the server took is what the kernel's
  // socket buffers hold (a few MiB: ~100 of these 32 KiB responses) plus
  // about two windows (the parked slots and one harvested output buffer).
  // Before, every request was parsed, executed and buffered.
  EXPECT_LT(served, kGets / 4);
  ::shutdown(client->fd(), SHUT_RDWR);
  writer.join();
}

TEST_F(NetServerTest, HalfCloseFlushesThenCloses) {
  std::vector<uint64_t> oids = SeedParts(5);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  SetReceiveTimeout(client.get());

  // The peer sends 50 GETs and half-closes: every request already sent is
  // answered, in order, and only then does the server close its side.
  ASSERT_TRUE(client->SendRaw(GetBurst(oids, 50)).ok());
  ASSERT_EQ(::shutdown(client->fd(), SHUT_WR), 0);
  ExpectGetsInOrder(client.get(), oids, 50);
  auto eof = client->ReceiveResponse();
  EXPECT_FALSE(eof.ok());

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->open_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->open_connections(), 0u);
}

TEST_F(NetServerTest, ConcurrentConnectionsCommitAndStayVisible) {
  constexpr int kConns = 8;
  constexpr int kCommitsEach = 12;
  std::vector<uint64_t> oids = SeedParts(kConns);

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCommitsEach; ++i) {
        auto txn = (*client)->Begin();
        if (!txn.ok() ||
            !(*client)
                 ->Set(*txn, oids[c], "Weight",
                       Value::Int(1000 * (c + 1) + i))
                 .ok() ||
            !(*client)->Commit(*txn).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every connection's last committed write is visible.
  auto check = MustConnect();
  ASSERT_NE(check, nullptr);
  for (int c = 0; c < kConns; ++c) {
    auto rows = check->Query("select Part where Weight = " +
                             std::to_string(1000 * (c + 1) +
                                            (kCommitsEach - 1)));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u) << "connection " << c;
    EXPECT_EQ((*rows)[0], oids[c]);
  }
}

TEST_F(NetServerTest, StopDrainsInFlightCommitsAcksStayDurable) {
  constexpr int kTxns = 24;
  std::vector<uint64_t> oids = SeedParts(kTxns);
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);

  // Open every transaction up front (round-trips), then fire the whole
  // set+commit burst pipelined and stop the server while it is in flight.
  std::vector<uint64_t> txns;
  for (int i = 0; i < kTxns; ++i) {
    auto txn = client->Begin();
    ASSERT_TRUE(txn.ok());
    txns.push_back(*txn);
  }
  std::string burst;
  for (int i = 0; i < kTxns; ++i) {
    Request set;
    set.type = MsgType::kTxnSet;
    set.txn = txns[i];
    set.oid = oids[i];
    set.text = "Weight";
    set.value = Value::Int(50000 + i);
    EncodeRequest(set, &burst);
    Request commit;
    commit.type = MsgType::kTxnCommit;
    commit.txn = txns[i];
    EncodeRequest(commit, &burst);
  }
  uint64_t bytes_in_before = CounterValue("net.bytes_in");
  ASSERT_TRUE(client->SendRaw(burst).ok());
  // Wait until the server has ingested the whole burst, so the stop below
  // exercises drain-of-parsed-requests rather than a read race.
  auto ingest_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (CounterValue("net.bytes_in") < bytes_in_before + burst.size() &&
         std::chrono::steady_clock::now() < ingest_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(CounterValue("net.bytes_in"), bytes_in_before + burst.size());
  std::thread stopper([&] { server_->Stop(); });

  // Read until the drained server closes the socket; remember which
  // commits were acknowledged OK.
  std::vector<bool> acked(kTxns, false);
  size_t received = 0;
  while (received < static_cast<size_t>(2 * kTxns)) {
    auto resp = client->ReceiveResponse();
    if (!resp.ok()) break;  // drain finished and the server closed
    if (resp->type == MsgType::kTxnCommit &&
        resp->status == StatusCode::kOk) {
      acked[received / 2] = true;
    }
    ++received;
  }
  stopper.join();
  server_.reset();

  // The lifecycle invariant: every acknowledged commit survives reopen.
  ASSERT_TRUE(db_->Close().ok());
  db_.reset();
  DatabaseOptions opts;
  opts.path = base_;
  auto reopened = Database::Open(opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  int durable_acks = 0;
  for (int i = 0; i < kTxns; ++i) {
    if (!acked[i]) continue;
    ++durable_acks;
    auto obj = (*reopened)->store().Get(Oid(oids[i]));
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    bool found = false;
    for (const auto& [attr, value] : obj->attrs()) {
      if (value == Value::Int(50000 + i)) found = true;
    }
    EXPECT_TRUE(found) << "acked commit " << i << " lost across reopen";
  }
  // Stop() drains already-received frames, so the whole burst -- sent
  // before Stop began -- should have been acknowledged.
  EXPECT_EQ(durable_acks, kTxns);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(NetServerTest, DisconnectAbortsOpenTransactions) {
  std::vector<uint64_t> oids = SeedParts(1);
  {
    auto client = MustConnect();
    ASSERT_NE(client, nullptr);
    auto txn = client->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(client->Set(*txn, oids[0], "Weight", Value::Int(1)).ok());
    // Client vanishes with the transaction open.
  }
  // The server notices the close and aborts the orphan, so a checkpoint
  // (which refuses while transactions are active) eventually succeeds.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Status st;
  do {
    st = db_->Checkpoint();
    if (st.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(server_->open_connections(), 0u);
}

TEST_F(NetServerTest, NetMetricsAccumulate) {
  SeedParts(2);
  uint64_t req_before = CounterValue("net.requests");
  auto client = MustConnect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Query("select Part").ok());
  EXPECT_GE(CounterValue("net.requests"), req_before + 2);
  EXPECT_GT(CounterValue("net.bytes_in"), 0u);
  EXPECT_GT(CounterValue("net.bytes_out"), 0u);
  // Every flush that sent bytes carried at least one new response here.
  EXPECT_GT(CounterValue("net.flushes"), 0u);
  EXPECT_LE(CounterValue("net.flushes"), CounterValue("net.requests"));
  EXPECT_GE(CounterValue("net.accepted"), 1u);
  EXPECT_GE(db_->metrics().GetGauge("net.connections")->value(), 1);
}

}  // namespace
}  // namespace net
}  // namespace kimdb

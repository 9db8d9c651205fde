#ifndef KIMDB_NET_CLIENT_H_
#define KIMDB_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "util/result.h"

namespace kimdb {
namespace net {

/// Blocking wire-protocol client: one TCP connection, synchronous
/// request/response helpers plus an explicit pipelined batch API
/// (`Pipeline`) that writes many frames before reading any response --
/// that is what lets one connection keep the server's per-connection slot
/// queues deep enough to merge commits into WAL group-commit batches.
/// Not thread-safe; use one Client per thread.
class Client {
 public:
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// HELLO handshake; returns the server banner.
  Result<std::string> Hello(const std::string& client_name);
  Status Ping();
  /// Point read; returns the encoded Object image (Object::Decode-able).
  Result<std::string> Get(uint64_t oid);
  /// OQL query; returns raw OID bits of the result set.
  Result<std::vector<uint64_t>> Query(const std::string& oql);
  /// OQL explain; returns the rendered plan.
  Result<std::string> Explain(const std::string& oql);
  Result<uint64_t> Begin();
  Status Set(uint64_t txn, uint64_t oid, const std::string& attr,
             const Value& value);
  /// Durable on OK: the server's WAL group commit fdatasync'd this txn.
  Status Commit(uint64_t txn);
  Status Abort(uint64_t txn);
  /// Registry snapshot JSON from the server.
  Result<std::string> Metrics();

  /// Pipelined round-trip: encodes and writes every request back-to-back,
  /// then reads exactly one response per request, in order.
  Result<std::vector<Response>> Pipeline(const std::vector<Request>& reqs);

  /// Writes raw bytes to the socket (tests: torn frames, garbage).
  Status SendRaw(std::string_view bytes);
  /// Reads one response frame (blocking). IOError once the server closes.
  Result<Response> ReceiveResponse();

  int fd() const { return fd_; }

 private:
  Client() = default;
  Result<Response> RoundTrip(const Request& req);

  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace net
}  // namespace kimdb

#endif  // KIMDB_NET_CLIENT_H_

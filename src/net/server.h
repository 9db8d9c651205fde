#ifndef KIMDB_NET_SERVER_H_
#define KIMDB_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/protocol.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace kimdb {

class Database;

namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; Server::port() reports the actual one.
  uint16_t port = 0;
  /// Worker threads executing parsed requests against the Database.
  /// Concurrent COMMITs from independent connections ride these into the
  /// WAL group commit together -- more workers means bigger leader
  /// fdatasync batches under multi-client load.
  size_t workers = 4;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection cap on parsed-but-unanswered requests. A connection
  /// at the cap stops being read (backpressure) until half the window
  /// drains; protects the server from a client that pipelines without
  /// ever reading responses.
  size_t max_pipeline = 128;
  /// Stop() waits this long for in-flight requests to complete and
  /// response bytes to flush before force-closing connections.
  uint32_t drain_timeout_ms = 10000;
  int listen_backlog = 128;
};

/// The KIMDB wire-protocol front-end (DESIGN.md §17): one epoll
/// edge-triggered I/O thread owns every socket; a pool of worker threads
/// executes parsed requests against the Database.
///
/// Pipelining: the I/O thread parses as many frames per connection as the
/// client sent, queueing one response slot per request in arrival order.
/// One worker at a time drains a connection's queue, serially, and sends
/// that connection's finished responses itself, coalesced (FlushLocked):
/// it flushes when the queue runs empty, when the next request is not a
/// GET (so no response waits behind a COMMIT's fdatasync or a long query),
/// or every kFlushEvery responses. Responses always leave in request
/// order, and concurrent commits from different connections land in the
/// WAL group commit together.
///
/// The I/O thread owns accept, recv, epoll and close. The eventfd wakes it
/// only for its own jobs: a flush that hit EAGAIN continues on the
/// socket's EPOLLOUT edge, and a worker calls Wake() when a paused reader
/// may resume, when a connection is ready to close, or after a hard send
/// error. Stop() wakes it too.
///
/// Stop() (and the SIGINT path of `kimdb_server`) drains: the listening
/// socket closes first, reads stop, every already-parsed request runs to
/// completion -- commits finish their group-commit fdatasync -- and
/// buffered responses flush before connections close. A commit the client
/// saw acknowledged is therefore always durable across a server stop.
/// Connection-scoped transactions still open when a connection dies are
/// aborted so a vanished client can never wedge a checkpoint.
class Server {
 public:
  /// Binds, registers the net.* metrics on `db`'s registry, installs the
  /// frontend stop hook (Database::Close stops the server first), and
  /// spawns the I/O + worker threads. `db` must outlive the server or
  /// close after it.
  static Result<std::unique_ptr<Server>> Start(Database* db,
                                               const ServerOptions& opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves an ephemeral bind).
  uint16_t port() const { return port_; }

  /// Drains and shuts down; idempotent and callable from any thread
  /// (including a signal-triggered main loop).
  void Stop();

  /// Connections currently open (tests).
  size_t open_connections() const;

 private:
  /// One response slot of a pipelined connection: filled by a worker,
  /// harvested in arrival order by FlushLocked on whichever thread flushes
  /// (the draining worker, or the I/O thread).
  struct Slot {
    Request req;
    std::string bytes;  // encoded response frame
    std::chrono::steady_clock::time_point t0;
    bool done = false;
  };

  struct Conn {
    explicit Conn(size_t max_frame) : reader(max_frame) {}
    int fd = -1;
    FrameReader reader;
    std::mutex mu;
    std::deque<std::unique_ptr<Slot>> slots;  // arrival order, under mu
    std::string outbuf;                       // under mu
    size_t outpos = 0;                        // consumed prefix of outbuf
    bool send_failed = false;    // a send failed hard; the I/O thread closes
    bool close_after_flush = false;
    bool read_eof = false;       // peer half-closed or drain mode
    bool paused = false;         // backpressure: at max_pipeline
    bool closed = false;
    std::unordered_set<uint64_t> open_txns;  // begun on this connection
    // Per-connection execution queue: slots run one at a time, in arrival
    // order, so pipelined operations on the same transaction (SET then
    // COMMIT) never race each other. Parallelism comes from *across*
    // connections -- which is exactly what feeds the WAL group commit.
    std::deque<Slot*> exec_queue;  // under mu
    bool exec_scheduled = false;   // conn is on (or owned by) a worker
  };

  Server() = default;

  void IoLoop();
  void WorkerLoop();

  void HandleAcceptable();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Parses every complete frame buffered on `conn` into slots + work
  /// items (stops at the pipeline cap).
  void ParseFrames(const std::shared_ptr<Conn>& conn);
  /// The one send path, run by the worker that drained `conn` and by the
  /// I/O thread: whenever the outbuf is empty, moves the contiguous
  /// done-prefix of `conn`'s slots into it, and sends until nothing done
  /// is left or the socket would block (the I/O thread's EPOLLOUT edge
  /// continues). Slots behind unsent bytes stay in `slots`, so the
  /// max_pipeline window bounds what a non-reading client costs. Returns
  /// true when the I/O thread should close `conn`: a send failed hard, or
  /// close_after_flush is set and nothing is owed. Caller holds conn->mu.
  bool FlushLocked(Conn* conn);
  /// Un-pauses `conn`'s reader once half its window has drained, then
  /// parses the backlog and reads on (I/O thread).
  void ResumeIfDrained(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Executes one request against the database (worker thread).
  Response Execute(const std::shared_ptr<Conn>& conn, const Request& req);
  void Wake();

  Database* db_ = nullptr;
  ServerOptions opts_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::thread io_thread_;
  std::vector<std::thread> workers_;

  // Work queue: connections with a non-empty exec_queue, each claimed by
  // exactly one worker at a time (Conn::exec_scheduled).
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Conn>> work_;
  bool workers_stop_ = false;  // under work_mu_

  // Conn registry: owned by the I/O thread; the mutex covers the map for
  // open_connections() and Stop's inspection, not per-conn state.
  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  std::atomic<bool> stopping_{false};
  std::once_flag stop_once_;

  // net.* metrics (registered on the Database's registry at Start).
  obs::Gauge* connections_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* flushes_ = nullptr;  // FlushLocked calls that sent bytes
  obs::Counter* protocol_errors_ = nullptr;
  obs::Histogram* pipeline_depth_ = nullptr;
  obs::Histogram* request_ns_ = nullptr;
};

}  // namespace net
}  // namespace kimdb

#endif  // KIMDB_NET_SERVER_H_

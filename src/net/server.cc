#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/database.h"

namespace kimdb {
namespace net {

namespace {

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

// A worker sends at the latest after this many unflushed responses, so a
// long run of pipelined GETs still streams out instead of leaving the
// client idle until the whole batch has executed.
constexpr size_t kFlushEvery = 16;

Response ErrorResponse(MsgType type, const Status& st) {
  Response resp;
  resp.type = type;
  resp.status = st.code();
  resp.message = st.message();
  return resp;
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(Database* db,
                                              const ServerOptions& opts) {
  auto srv = std::unique_ptr<Server>(new Server());
  srv->db_ = db;
  srv->opts_ = opts;
  if (srv->opts_.workers == 0) srv->opts_.workers = 1;
  if (srv->opts_.max_pipeline == 0) srv->opts_.max_pipeline = 1;

  srv->listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (srv->listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(srv->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable IPv4 host: " + opts.host);
  }
  if (::bind(srv->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(srv->listen_fd_, opts.listen_backlog) < 0) {
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  KIMDB_RETURN_IF_ERROR(SetNonBlocking(srv->listen_fd_));

  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(srv->listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &blen) < 0) {
    return Status::IOError(std::string("getsockname: ") +
                           std::strerror(errno));
  }
  srv->port_ = ntohs(bound.sin_port);

  srv->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  srv->wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (srv->epoll_fd_ < 0 || srv->wake_fd_ < 0) {
    return Status::IOError(std::string("epoll/eventfd: ") +
                           std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = srv->listen_fd_;
  if (::epoll_ctl(srv->epoll_fd_, EPOLL_CTL_ADD, srv->listen_fd_, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = srv->wake_fd_;
  if (::epoll_ctl(srv->epoll_fd_, EPOLL_CTL_ADD, srv->wake_fd_, &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(wake): ") +
                           std::strerror(errno));
  }

  // The server's observability lives in the database's registry, so one
  // snapshot covers the engine and its front-end (a load generator reads
  // p50/p95/p99 and pipeline depth straight from registry diffs).
  obs::MetricsRegistry& m = db->metrics();
  srv->connections_ = m.GetGauge("net.connections");
  srv->accepted_ = m.GetCounter("net.accepted");
  srv->requests_ = m.GetCounter("net.requests");
  srv->bytes_in_ = m.GetCounter("net.bytes_in");
  srv->bytes_out_ = m.GetCounter("net.bytes_out");
  srv->flushes_ = m.GetCounter("net.flushes");
  srv->protocol_errors_ = m.GetCounter("net.protocol_errors");
  srv->pipeline_depth_ = m.GetHistogram("net.pipeline_depth");
  srv->request_ns_ = m.GetHistogram("net.request_ns");

  // Database::Close stops the front-end first, so no worker can run a
  // request against a half-torn-down engine.
  Server* raw = srv.get();
  db->SetFrontendStopHook([raw] { raw->Stop(); });

  srv->io_thread_ = std::thread([raw] { raw->IoLoop(); });
  for (size_t i = 0; i < srv->opts_.workers; ++i) {
    srv->workers_.emplace_back([raw] { raw->WorkerLoop(); });
  }
  return srv;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    Wake();
    if (io_thread_.joinable()) io_thread_.join();
    {
      std::lock_guard<std::mutex> lk(work_mu_);
      workers_stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    // The database may outlive the server; a dangling hook must not.
    if (db_ != nullptr) db_->SetFrontendStopHook(nullptr);
  });
}

size_t Server::open_connections() const {
  std::lock_guard<std::mutex> lk(conns_mu_);
  return conns_.size();
}

void Server::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN means a wake is already pending -- good enough
}

void Server::IoLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  while (true) {
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      // Drain mode: no new connections, no new bytes; every request
      // already received (including frames still buffered but unparsed)
      // runs to completion and its response flushes before close.
      draining = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(opts_.drain_timeout_ms);
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      std::vector<std::shared_ptr<Conn>> snapshot;
      {
        std::lock_guard<std::mutex> lk(conns_mu_);
        for (auto& [fd, c] : conns_) snapshot.push_back(c);
      }
      for (auto& c : snapshot) {
        // One last read: bytes the kernel already delivered are in-flight
        // requests and must run to completion before the close.
        HandleReadable(c);
        {
          std::lock_guard<std::mutex> lk(c->mu);
          c->read_eof = true;
          c->close_after_flush = true;
        }
        ParseFrames(c);      // frames buffered but not yet parsed
        HandleWritable(c);   // flush + close if already idle
      }
    }

    if (draining) {
      std::vector<std::shared_ptr<Conn>> snapshot;
      {
        std::lock_guard<std::mutex> lk(conns_mu_);
        for (auto& [fd, c] : conns_) snapshot.push_back(c);
      }
      bool timed_out =
          std::chrono::steady_clock::now() >= drain_deadline;
      for (auto& c : snapshot) {
        if (timed_out) {
          CloseConn(c);
          continue;
        }
        HandleWritable(c);  // harvest finished slots, flush, maybe close
      }
      std::lock_guard<std::mutex> lk(conns_mu_);
      if (conns_.empty()) break;
    }

    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, draining ? 20 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drainv;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        // A worker asked for a resume or a close (or Stop was requested):
        // flush or close every connection and resume paused readers.
        std::vector<std::shared_ptr<Conn>> snapshot;
        {
          std::lock_guard<std::mutex> lk(conns_mu_);
          for (auto& [cfd, c] : conns_) snapshot.push_back(c);
        }
        for (auto& c : snapshot) {
          HandleWritable(c);
          ResumeIfDrained(c);
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (!draining) HandleAcceptable();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lk(conns_mu_);
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // already closed this pass
        conn = it->second;
      }
      if (mask & (EPOLLERR | EPOLLHUP)) {
        CloseConn(conn);
        continue;
      }
      if (mask & (EPOLLIN | EPOLLRDHUP)) HandleReadable(conn);
      if (mask & EPOLLOUT) {
        // Sending frees window slots (FlushLocked harvests only what the
        // socket took), which may be what a paused reader waits for.
        HandleWritable(conn);
        ResumeIfDrained(conn);
      }
    }
  }

  // Final pass: every connection is gone; abort nothing here (CloseConn
  // already did), just make sure the listen socket is closed.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::HandleAcceptable() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the next edge retries
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(opts_.max_frame_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_[fd] = conn;
    }
    accepted_->Inc();
    connections_->Add(1);
    HandleReadable(conn);  // data may have raced the accept edge
  }
}

void Server::HandleReadable(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed || conn->read_eof || conn->paused) return;
  }
  char buf[64 * 1024];
  bool eof = false;
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_->Inc(static_cast<uint64_t>(n));
      conn->reader.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;  // hard error: treat as peer-gone
    break;
  }
  ParseFrames(conn);
  if (eof) {
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->read_eof = true;
    conn->close_after_flush = true;
  }
  HandleWritable(conn);  // flush whatever harvested; maybe close
}

void Server::ParseFrames(const std::shared_ptr<Conn>& conn) {
  while (true) {
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      if (conn->closed) return;
      if (conn->slots.size() >= opts_.max_pipeline) {
        conn->paused = true;
        return;
      }
    }
    std::string payload;
    Result<bool> got = conn->reader.Next(&payload);
    if (!got.ok()) {
      // Oversized frame or poisoned stream: count it, close cleanly after
      // flushing responses already owed.
      protocol_errors_->Inc();
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->read_eof = true;
      conn->close_after_flush = true;
      return;
    }
    if (!*got) return;  // need more bytes
    Result<Request> req = DecodeRequest(payload);
    if (!req.ok()) {
      protocol_errors_->Inc();
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->read_eof = true;
      conn->close_after_flush = true;
      return;
    }
    auto slot = std::make_unique<Slot>();
    slot->req = std::move(*req);
    slot->t0 = std::chrono::steady_clock::now();
    Slot* raw = slot.get();
    size_t depth;
    bool schedule;
    {
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->slots.push_back(std::move(slot));
      conn->exec_queue.push_back(raw);
      depth = conn->slots.size();
      schedule = !conn->exec_scheduled;
      if (schedule) conn->exec_scheduled = true;
    }
    requests_->Inc();
    pipeline_depth_->Record(depth);
    if (schedule) {
      {
        std::lock_guard<std::mutex> lk(work_mu_);
        work_.push_back(conn);
      }
      work_cv_.notify_one();
    }
  }
}

bool Server::FlushLocked(Conn* conn) {
  if (conn->closed) return false;
  size_t sent = 0;
  while (!conn->send_failed) {
    if (conn->outpos == conn->outbuf.size()) {
      // Harvest only into an empty outbuf: a finished response stays in
      // `slots`, inside the max_pipeline window, until the socket takes
      // the bytes ahead of it, so a client that never reads stops being
      // read instead of growing the outbuf without bound.
      conn->outbuf.clear();
      conn->outpos = 0;
      while (!conn->slots.empty() && conn->slots.front()->done) {
        conn->outbuf.append(conn->slots.front()->bytes);
        conn->slots.pop_front();
      }
      if (conn->outbuf.empty()) break;
    }
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outpos,
                       conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outpos += static_cast<size_t>(n);
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    conn->send_failed = true;  // peer vanished mid-flush
  }
  if (sent > 0) {
    bytes_out_->Inc(sent);
    flushes_->Inc();
  }
  return conn->send_failed ||
         (conn->close_after_flush && conn->slots.empty() &&
          conn->outpos == conn->outbuf.size());
}

void Server::HandleWritable(const std::shared_ptr<Conn>& conn) {
  bool close_now;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    close_now = FlushLocked(conn.get());
  }
  if (close_now) CloseConn(conn);
}

void Server::ResumeIfDrained(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (!conn->paused || conn->closed ||
        conn->slots.size() > opts_.max_pipeline / 2) {
      return;
    }
    conn->paused = false;
  }
  // The edge that delivered the unread bytes has passed; parse the
  // backlog and re-read explicitly.
  ParseFrames(conn);
  HandleReadable(conn);
}

void Server::CloseConn(const std::shared_ptr<Conn>& conn) {
  std::vector<uint64_t> orphaned;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    orphaned.assign(conn->open_txns.begin(), conn->open_txns.end());
    conn->open_txns.clear();
  }
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.erase(conn->fd);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  connections_->Add(-1);
  // A vanished client must not leave active transactions behind: they
  // would pin locks and wedge every future checkpoint.
  for (uint64_t txn : orphaned) {
    Status st = db_->Abort(txn);
    (void)st;  // the txn may have committed/aborted through another path
  }
}

void Server::WorkerLoop() {
  while (true) {
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lk(work_mu_);
      work_cv_.wait(lk, [this] { return workers_stop_ || !work_.empty(); });
      if (work_.empty()) return;  // workers_stop_ and drained
      conn = std::move(work_.front());
      work_.pop_front();
    }
    // Drain this connection's queue serially: pipelined operations on the
    // same transaction must not race each other across workers.
    size_t unflushed = 0;
    while (true) {
      Slot* slot = nullptr;
      bool skip = false;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (conn->exec_queue.empty()) {
          conn->exec_scheduled = false;
          break;
        }
        slot = conn->exec_queue.front();
        conn->exec_queue.pop_front();
        skip = conn->closed;
      }
      Response resp;
      if (!skip) {
        resp = Execute(conn, slot->req);
      }
      std::string bytes;
      EncodeResponse(resp, &bytes);
      request_ns_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - slot->t0)
              .count()));
      bool wake = false;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        slot->bytes = std::move(bytes);
        slot->done = true;
        // This worker sends the connection's responses itself, in arrival
        // order. It holds one back only while the next request is a GET
        // (fast) and fewer than kFlushEvery are waiting; a response never
        // waits behind a COMMIT's fdatasync or a long query. The queue's
        // last response always flushes (the queue is empty then).
        if (++unflushed >= kFlushEvery || conn->exec_queue.empty() ||
            conn->exec_queue.front()->req.type != MsgType::kGet) {
          unflushed = 0;
          wake = FlushLocked(conn.get());
        }
        // Closing and resuming a paused reader are the I/O thread's jobs.
        wake = wake || (conn->paused && !conn->closed &&
                        conn->slots.size() <= opts_.max_pipeline / 2);
      }
      if (wake) Wake();
    }
  }
}

Response Server::Execute(const std::shared_ptr<Conn>& conn,
                         const Request& req) {
  Response resp;
  resp.type = req.type;
  switch (req.type) {
    case MsgType::kHello:
      resp.text = "kimdb";
      break;
    case MsgType::kPing:
      break;
    case MsgType::kGet: {
      Result<Object> obj = db_->store().Get(Oid(req.oid));
      if (!obj.ok()) return ErrorResponse(req.type, obj.status());
      obj->EncodeTo(&resp.object_bytes);
      break;
    }
    case MsgType::kQuery: {
      Result<std::vector<Oid>> oids = db_->ExecuteOql(req.text);
      if (!oids.ok()) return ErrorResponse(req.type, oids.status());
      resp.oids.reserve(oids->size());
      for (Oid oid : *oids) resp.oids.push_back(oid.raw());
      break;
    }
    case MsgType::kExplain: {
      Result<QueryPlan> plan = db_->ExplainOql(req.text);
      if (!plan.ok()) return ErrorResponse(req.type, plan.status());
      resp.text = plan->ToString();
      break;
    }
    case MsgType::kTxnBegin: {
      Result<uint64_t> txn = db_->Begin();
      if (!txn.ok()) return ErrorResponse(req.type, txn.status());
      resp.u64 = *txn;
      std::lock_guard<std::mutex> lk(conn->mu);
      conn->open_txns.insert(*txn);
      break;
    }
    case MsgType::kTxnSet: {
      Status st = db_->Set(req.txn, Oid(req.oid), req.text, req.value);
      if (!st.ok()) return ErrorResponse(req.type, st);
      break;
    }
    case MsgType::kTxnCommit: {
      Status st = db_->Commit(req.txn);
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        conn->open_txns.erase(req.txn);
      }
      if (!st.ok()) return ErrorResponse(req.type, st);
      break;
    }
    case MsgType::kTxnAbort: {
      Status st = db_->Abort(req.txn);
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        conn->open_txns.erase(req.txn);
      }
      if (!st.ok()) return ErrorResponse(req.type, st);
      break;
    }
    case MsgType::kMetrics:
      resp.text = db_->MetricsJson();
      break;
  }
  return resp;
}

}  // namespace net
}  // namespace kimdb

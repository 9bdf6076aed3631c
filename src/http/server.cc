// Epoll keep-alive reactor behind ashttp::HttpServer (ROADMAP "event-driven
// HTTP edge"). The seed served one blocking thread per connection and kept
// every finished worker joinable until Stop() — at edge scale the thread
// table, not the visor, fell over first. Here:
//
//   * N reactor threads (default 1) each run an epoll loop over a disjoint
//     set of non-blocking connections. The listener belongs to reactor 0;
//     accepted fds are dealt round-robin across reactors.
//   * Request bytes feed the incremental RequestParser as they arrive, so a
//     slow or pipelining client costs a connection object, never a thread.
//   * Parsed requests run the handler inline on the reactor. The handler
//     never blocks: it answers through an HttpResponder, at once or later
//     from whichever thread finishes the work (the visor's serving pool).
//     The responder posts the serialized response to the owning reactor's
//     inbox + eventfd, keeping every socket under single-threaded ownership
//     (one request in flight per connection, so responses stay in request
//     order — pipelining-safe). No thread waits on a request anywhere.
//   * Writes are buffered and flushed opportunistically; EAGAIN arms
//     EPOLLOUT and the reactor finishes the flush when the socket drains.
//   * A connection cap (503 + close past it) and idle reaping bound edge
//     memory; an eventfd per reactor gives Stop() a clean, race-free exit.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/logging.h"
#include "src/http/http.h"
#include "src/http/parser.h"
#include "src/obs/metrics.h"

namespace ashttp {
namespace internal {
namespace {

// Cached once; Counter/Gauge references are stable for the process.
struct EdgeMetrics {
  static EdgeMetrics& Get() {
    static EdgeMetrics metrics;
    return metrics;
  }
  asobs::Counter& accepts =
      asobs::Registry::Global().GetCounter("alloy_edge_accepts_total");
  asobs::Counter& overflows =
      asobs::Registry::Global().GetCounter("alloy_edge_overflows_total");
  asobs::Counter& reaped =
      asobs::Registry::Global().GetCounter("alloy_edge_reaped_total");
  asobs::Counter& parse_errors =
      asobs::Registry::Global().GetCounter("alloy_edge_parse_errors_total");
  asobs::Counter& requests =
      asobs::Registry::Global().GetCounter("alloy_edge_requests_total");
  asobs::Gauge& connections =
      asobs::Registry::Global().GetGauge("alloy_edge_connections");
};

std::string ErrorResponseWire(int status, const std::string& reason,
                              const std::string& body) {
  HttpResponse response;
  response.status = status;
  response.reason = reason;
  response.body = body;
  response.headers["connection"] = "close";
  return Serialize(response);
}

}  // namespace

// Owned by exactly one reactor and touched only on its thread. Responders
// hold a weak_ptr, so a connection closed while its request is in flight
// dies at once and its late completion is dropped.
struct EdgeConnection {
  explicit EdgeConnection(int fd_in, HttpServer* server_in,
                          RequestParser::Limits limits)
      : fd(fd_in), server(server_in), parser(limits) {}

  ~EdgeConnection() {
    if (fd >= 0) {
      ::close(fd);
    }
    if (flush_debt) {
      server->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
    }
    EdgeMetrics::Get().connections.Add(-1);
    server->active_connections_.fetch_sub(1, std::memory_order_relaxed);
  }

  int fd;
  HttpServer* server;
  RequestParser parser;
  std::deque<HttpRequest> pending;  // parsed, awaiting dispatch (in order)
  bool handler_inflight = false;
  // Parse failed while earlier pipelined requests were still queued; the
  // error response is emitted once those responses have gone out.
  std::optional<std::string> deferred_error;
  std::string out;
  size_t out_offset = 0;
  uint32_t epoll_events = 0;  // currently-armed interest set
  bool close_after_flush = false;
  bool read_closed = false;
  bool flush_debt = false;  // counted in server->settle_debt_
  int64_t last_activity = 0;
  bool dead = false;
};

// A serialized response on its way back to the reactor owning `connection`.
struct Completion {
  std::weak_ptr<EdgeConnection> connection;
  std::string wire;
  bool close_after;
};

// A reactor's mailbox: adopted connections from reactor 0's accept path and
// completions from responders on any thread. Shared with every responder
// the reactor hands out, since those may outlive the reactor and the
// server: the eventfd lives here, and Close() turns later posts into drops.
class EdgeInbox {
 public:
  EdgeInbox() : wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~EdgeInbox() {
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
    }
  }

  int wake_fd() const { return wake_fd_; }

  void Wake() {
    const uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;
  }

  void Adopt(std::shared_ptr<EdgeConnection> connection) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return;
      }
      adds_.push_back(std::move(connection));
    }
    Wake();
  }

  void Post(Completion completion) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return;  // the server stopped: nobody will write this response
      }
      completions_.push_back(std::move(completion));
    }
    Wake();
  }

  void Take(std::vector<std::shared_ptr<EdgeConnection>>* adds,
            std::vector<Completion>* completions) {
    std::lock_guard<std::mutex> lock(mutex_);
    adds->swap(adds_);
    completions->swap(completions_);
  }

  // After the reactor thread exited: drops what is queued (adopted
  // connections close here, while their server is alive) and every later
  // post.
  void Close() {
    std::vector<std::shared_ptr<EdgeConnection>> adds;
    std::vector<Completion> completions;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      adds.swap(adds_);
      completions.swap(completions_);
    }
  }

 private:
  const int wake_fd_;
  std::mutex mutex_;
  bool closed_ = false;
  std::vector<std::shared_ptr<EdgeConnection>> adds_;
  std::vector<Completion> completions_;
};

class EdgeReactor {
 public:
  EdgeReactor(HttpServer* server, size_t index)
      : server_(server),
        index_(index),
        inbox_(std::make_shared<EdgeInbox>()),
        wake_fd_(inbox_->wake_fd()) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);
    if (index_ == 0) {
      epoll_event listen_event{};
      listen_event.events = EPOLLIN;
      listen_event.data.fd = server_->listen_fd_;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, server_->listen_fd_,
                  &listen_event);
      listen_registered_ = true;
    }
  }

  ~EdgeReactor() {
    inbox_->Close();
    connections_.clear();  // destructors close the fds
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
  }

  void StartThread() {
    thread_ = std::thread([this] { Loop(); });
  }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  void Wake() { inbox_->Wake(); }

  // Called from reactor 0's accept path; hands a fresh connection to this
  // reactor's thread.
  void Adopt(std::shared_ptr<EdgeConnection> connection) {
    inbox_->Adopt(std::move(connection));
  }

 private:
  void Loop() {
    const int64_t idle_nanos = server_->options_.idle_timeout_ms * 1000000;
    // The reap scan needs a periodic wake; a quarter of the timeout keeps
    // reap latency bounded without busy-spinning a 10k-connection table.
    const int tick_ms =
        idle_nanos > 0
            ? static_cast<int>(std::clamp<int64_t>(
                  server_->options_.idle_timeout_ms / 4, 10, 1000))
            : 1000;
    epoll_event events[128];
    while (server_->running_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd_, events, 128, tick_ms);
      if (!server_->running_.load(std::memory_order_acquire)) {
        break;
      }
      if (index_ == 0 && listen_registered_ &&
          !server_->accepting_.load(std::memory_order_acquire)) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, server_->listen_fd_, nullptr);
        listen_registered_ = false;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          DrainWakeFd();
          continue;
        }
        if (index_ == 0 && fd == server_->listen_fd_) {
          AcceptReady();
          continue;
        }
        auto it = connections_.find(fd);
        if (it == connections_.end()) {
          continue;
        }
        std::shared_ptr<EdgeConnection> connection = it->second;
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          Close(connection);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) {
          ReadReady(connection);
        }
        if (!connection->dead && (events[i].events & EPOLLOUT) != 0) {
          Flush(connection);
        }
      }
      DrainInbox();
      if (idle_nanos > 0) {
        ReapIdle(idle_nanos);
      }
    }
  }

  void DrainWakeFd() {
    uint64_t value;
    while (::read(wake_fd_, &value, sizeof(value)) > 0) {
    }
  }

  void AcceptReady() {
    if (!server_->accepting_.load(std::memory_order_acquire)) {
      return;
    }
    while (true) {
      const int fd = ::accept4(server_->listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN, or EMFILE — either way, back to the loop
      }
      int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
      const size_t active = server_->active_connections_.load(
          std::memory_order_relaxed);
      if (active >= server_->options_.max_connections) {
        // Over the cap: a best-effort 503 (the socket buffer of a fresh
        // connection always has room for it) and an immediate close.
        EdgeMetrics::Get().overflows.Add();
        const std::string wire = ErrorResponseWire(
            503, "Service Unavailable", "connection limit reached");
        ssize_t sent = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
        (void)sent;
        ::close(fd);
        continue;
      }
      EdgeMetrics::Get().accepts.Add();
      EdgeMetrics::Get().connections.Add(1);
      server_->active_connections_.fetch_add(1, std::memory_order_relaxed);
      RequestParser::Limits limits;
      limits.max_header_bytes = server_->options_.max_header_bytes;
      limits.max_body_bytes = server_->options_.max_body_bytes;
      auto connection =
          std::make_shared<EdgeConnection>(fd, server_, limits);
      connection->last_activity = asbase::MonoNanos();
      const size_t target =
          server_->accept_cursor_.fetch_add(1, std::memory_order_relaxed) %
          server_->reactors_.size();
      if (target == 0) {
        Register(std::move(connection));
      } else {
        server_->reactors_[target]->Adopt(std::move(connection));
      }
    }
  }

  void Register(std::shared_ptr<EdgeConnection> connection) {
    const int fd = connection->fd;
    connections_[fd] = connection;
    connection->epoll_events = EPOLLIN;
    epoll_event event{};
    event.events = connection->epoll_events;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  }

  void DrainInbox() {
    std::vector<std::shared_ptr<EdgeConnection>> adds;
    std::vector<Completion> completions;
    inbox_->Take(&adds, &completions);
    for (auto& connection : adds) {
      Register(std::move(connection));
    }
    for (auto& completion : completions) {
      const std::shared_ptr<EdgeConnection> connection =
          completion.connection.lock();
      if (connection == nullptr || connection->dead) {
        continue;  // Close() already settled its debt
      }
      server_->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
      EdgeMetrics::Get().requests.Add();
      connection->handler_inflight = false;
      connection->last_activity = asbase::MonoNanos();
      connection->out += completion.wire;
      NoteOutGrew(connection);
      if (completion.close_after) {
        // "Connection: close" means this is the final response; drop any
        // pipelined requests behind it.
        connection->close_after_flush = true;
        connection->pending.clear();
        connection->deferred_error.reset();
      }
      Advance(connection);
    }
  }

  // Central per-connection state pump: dispatch the next parsed request (or
  // the deferred parse-error response), flush buffered output, retune the
  // epoll interest set, and close once a final response has fully drained.
  void Advance(const std::shared_ptr<EdgeConnection>& connection) {
    if (!connection->handler_inflight && !connection->close_after_flush) {
      if (!connection->pending.empty()) {
        HttpRequest request = std::move(connection->pending.front());
        connection->pending.pop_front();
        connection->handler_inflight = true;
        Dispatch(connection, std::move(request));
      } else if (connection->deferred_error.has_value()) {
        connection->out += *connection->deferred_error;
        connection->deferred_error.reset();
        connection->close_after_flush = true;
        NoteOutGrew(connection);
      } else if (connection->read_closed) {
        connection->close_after_flush = true;  // nothing owed, peer is gone
      }
    }
    Flush(connection);
  }

  void NoteOutGrew(const std::shared_ptr<EdgeConnection>& connection) {
    if (!connection->flush_debt &&
        connection->out_offset < connection->out.size()) {
      connection->flush_debt = true;
      server_->settle_debt_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Hands the request to the handler, inline. Whoever answers serializes
  // the response on their own thread and posts it to this reactor's inbox.
  void Dispatch(const std::shared_ptr<EdgeConnection>& connection,
                HttpRequest request) {
    server_->settle_debt_.fetch_add(1, std::memory_order_relaxed);
    const bool close_after = WantsClose(request);
    HttpResponder respond(
        [inbox = inbox_, weak = std::weak_ptr<EdgeConnection>(connection),
         close_after](HttpResponse response) {
          if (close_after) {
            response.headers["connection"] = "close";
          }
          inbox->Post(Completion{weak, Serialize(response), close_after});
        });
    server_->handler_(std::move(request), std::move(respond));
  }

  void ReadReady(const std::shared_ptr<EdgeConnection>& connection) {
    char buffer[65536];
    while (true) {
      const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        Close(connection);
        return;
      }
      if (n == 0) {
        // Peer finished sending. Advance() serves whatever is already
        // queued, then the flush path closes the connection.
        connection->read_closed = true;
        break;
      }
      connection->last_activity = asbase::MonoNanos();
      std::vector<HttpRequest> parsed;
      asbase::Status status = connection->parser.Feed(
          std::string_view(buffer, static_cast<size_t>(n)), &parsed);
      for (auto& request : parsed) {
        connection->pending.push_back(std::move(request));
      }
      if (!status.ok()) {
        EdgeMetrics::Get().parse_errors.Add();
        const int code = RequestParser::StatusForParseError(status);
        const char* reason = code == 431 ? "Request Header Fields Too Large"
                             : code == 413 ? "Payload Too Large"
                                           : "Bad Request";
        connection->deferred_error =
            ErrorResponseWire(code, reason, status.ToString());
        break;  // stop reading a poisoned stream
      }
      if (static_cast<size_t>(n) < sizeof(buffer)) {
        break;  // short read: the socket is drained (saves one EAGAIN)
      }
    }
    Advance(connection);
  }

  void Flush(const std::shared_ptr<EdgeConnection>& connection) {
    while (connection->out_offset < connection->out.size()) {
      const ssize_t n = ::send(
          connection->fd, connection->out.data() + connection->out_offset,
          connection->out.size() - connection->out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          UpdateInterest(connection);
          return;
        }
        Close(connection);
        return;
      }
      connection->out_offset += static_cast<size_t>(n);
      connection->last_activity = asbase::MonoNanos();
    }
    connection->out.clear();
    connection->out_offset = 0;
    if (connection->flush_debt) {
      connection->flush_debt = false;
      server_->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (connection->close_after_flush) {
      Close(connection);
      return;
    }
    UpdateInterest(connection);
  }

  // Keeps the epoll interest set in sync with connection state: EPOLLOUT
  // while a flush is parked on a full socket, EPOLLIN unless reading is
  // paused for backpressure (too many parsed-but-unserved requests or too
  // many unsent response bytes) or the stream is poisoned/closed.
  void UpdateInterest(const std::shared_ptr<EdgeConnection>& connection) {
    uint32_t wanted = 0;
    const bool throttled =
        connection->pending.size() >= server_->options_.max_pipeline_depth ||
        connection->out.size() - connection->out_offset >
            server_->options_.max_buffered_out;
    if (!throttled && !connection->deferred_error.has_value() &&
        !connection->close_after_flush && !connection->read_closed) {
      wanted |= EPOLLIN;
    }
    if (connection->out_offset < connection->out.size()) {
      wanted |= EPOLLOUT;
    }
    if (wanted != connection->epoll_events) {
      connection->epoll_events = wanted;
      epoll_event event{};
      event.events = wanted;
      event.data.fd = connection->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &event);
    }
  }

  void Close(const std::shared_ptr<EdgeConnection>& connection) {
    if (connection->dead) {
      return;
    }
    connection->dead = true;
    // A dead connection is owed nothing: neither its unflushed bytes nor
    // the response to a request still in a handler's hands.
    if (connection->flush_debt) {
      connection->flush_debt = false;
      server_->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (connection->handler_inflight) {
      connection->handler_inflight = false;
      server_->settle_debt_.fetch_sub(1, std::memory_order_relaxed);
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
    connections_.erase(connection->fd);
    // The fd closes in the destructor, once the caller's reference goes. A
    // completion still on its way holds a weak_ptr to this object, not the
    // fd number, so it cannot land on a later connection reusing the fd.
  }

  void ReapIdle(int64_t idle_nanos) {
    const int64_t now = asbase::MonoNanos();
    std::vector<std::shared_ptr<EdgeConnection>> doomed;
    for (const auto& [fd, connection] : connections_) {
      if (connection->handler_inflight || !connection->pending.empty()) {
        continue;
      }
      if (!connection->parser.idle() ||
          connection->out_offset < connection->out.size()) {
        continue;  // mid-request or mid-response: not idle, just slow
      }
      if (now - connection->last_activity > idle_nanos) {
        doomed.push_back(connection);
      }
    }
    for (const auto& connection : doomed) {
      EdgeMetrics::Get().reaped.Add();
      Close(connection);
    }
  }

  HttpServer* server_;
  size_t index_;
  const std::shared_ptr<EdgeInbox> inbox_;
  const int wake_fd_;  // owned by inbox_
  bool listen_registered_ = false;
  int epoll_fd_ = -1;
  std::thread thread_;
  std::unordered_map<int, std::shared_ptr<EdgeConnection>> connections_;
};

}  // namespace internal

HttpServerOptions HttpServerOptions::FromEnv() {
  using asbase::EnvInt64;
  HttpServerOptions options;
  options.reactors = std::max<int64_t>(1, EnvInt64("ALLOY_EDGE_REACTORS", 1));
  options.max_connections = std::max<int64_t>(
      1, EnvInt64("ALLOY_EDGE_MAX_CONNS", options.max_connections));
  options.idle_timeout_ms =
      EnvInt64("ALLOY_EDGE_IDLE_TIMEOUT_MS", options.idle_timeout_ms);
  options.max_body_bytes =
      EnvInt64("ALLOY_EDGE_MAX_BODY_BYTES", options.max_body_bytes);
  return options;
}

HttpServer::HttpServer(HttpHandler handler)
    : HttpServer(std::move(handler), HttpServerOptions::FromEnv()) {}

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.reactors == 0) {
    options_.reactors = 1;
  }
}

HttpServer::~HttpServer() { Stop(); }

asbase::Status HttpServer::Start(uint16_t port) {
  if (running_.load()) {
    return asbase::FailedPrecondition("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return asbase::Internal("socket() failed");
  }
  int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return asbase::Unavailable("bind failed on port " + std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  // A deep backlog so a connection storm is bounded by how fast the reactor
  // drains accept4, not by SYN-queue overflow (the kernel still clamps to
  // net.core.somaxconn).
  if (::listen(listen_fd_, 4096) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return asbase::Internal("listen failed");
  }
  settle_debt_.store(0, std::memory_order_relaxed);
  accepting_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  reactors_.reserve(options_.reactors);
  for (size_t i = 0; i < options_.reactors; ++i) {
    reactors_.push_back(std::make_unique<internal::EdgeReactor>(this, i));
  }
  for (auto& reactor : reactors_) {
    reactor->StartThread();
  }
  return asbase::OkStatus();
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  // Phase 1: stop taking new connections, but keep the reactors serving so
  // responses still owed (e.g. a visor unwinding its admission queue with
  // 503s during drain, or finishing in-flight invocations) reach the wire.
  accepting_.store(false, std::memory_order_release);
  for (auto& reactor : reactors_) {
    reactor->Wake();
  }
  const int64_t settle_deadline = asbase::MonoNanos() + 5ll * 1000000000;
  while (settle_debt_.load(std::memory_order_relaxed) != 0 &&
         asbase::MonoNanos() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (settle_debt_.load(std::memory_order_relaxed) != 0) {
    AS_LOG(kWarn) << "edge stop: abandoning unflushed responses after 5s";
  }
  // Phase 2: tear down. Reactors exit, then their inboxes close (a
  // responder answering later finds its inbox closed and drops the
  // response), then the connection tables (destructors close the fds).
  running_.store(false, std::memory_order_release);
  for (auto& reactor : reactors_) {
    reactor->Wake();
  }
  for (auto& reactor : reactors_) {
    reactor->Join();
  }
  reactors_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

size_t HttpServer::active_connections() const {
  return active_connections_.load(std::memory_order_relaxed);
}

}  // namespace ashttp

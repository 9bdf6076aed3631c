// Minimal HTTP/1.1 for the as-visor watchdog and gateway (§3.3) and the
// `http-server` synthetic benchmark.
//
// The message layer is transport-agnostic via `ByteStream`, so the same
// parser serves (a) host TCP sockets — the watchdog listens on the host — and
// (b) asnet::TcpConnection — the LibOS `http-server` workload answers through
// the user-space stack, exactly like Figure 5's as-std HTTP client.
//
// Supported subset: request line + headers + Content-Length bodies,
// case-insensitive Connection token lists (HTTP/1.0 defaults to close),
// status lines on responses. No chunked encoding.
//
// The server is an epoll reactor (src/http/server.cc): non-blocking
// accept + per-connection incremental parsing (src/http/parser.h) with
// HTTP/1.1 keep-alive and pipelining, buffered non-blocking writes, and a
// connection cap with idle reaping — no thread-per-connection anywhere.
// Handlers run inline on the reactor and answer through an HttpResponder,
// at once or later from whichever thread finishes the work. The blocking
// ReadRequest/ReadResponse helpers remain for clients and for serving over
// the user-space netstack.

#ifndef SRC_HTTP_HTTP_H_
#define SRC_HTTP_HTTP_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/netstack/stack.h"

namespace ashttp {

// Transport the HTTP layer reads/writes.
class ByteStream {
 public:
  virtual ~ByteStream() = default;
  virtual asbase::Result<size_t> Read(std::span<uint8_t> out) = 0;
  virtual asbase::Status Write(std::span<const uint8_t> data) = 0;
};

// Host-kernel TCP socket stream.
class HostStream : public ByteStream {
 public:
  explicit HostStream(int fd) : fd_(fd) {}
  ~HostStream() override;
  asbase::Result<size_t> Read(std::span<uint8_t> out) override;
  asbase::Status Write(std::span<const uint8_t> data) override;
  int fd() const { return fd_; }

 private:
  int fd_;
};

// Stream over a user-space netstack connection.
class AsnetStream : public ByteStream {
 public:
  explicit AsnetStream(asnet::TcpConnection* connection)
      : connection_(connection) {}
  asbase::Result<size_t> Read(std::span<uint8_t> out) override;
  asbase::Status Write(std::span<const uint8_t> data) override;

 private:
  asnet::TcpConnection* connection_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  std::map<std::string, std::string> headers;  // lowercase keys
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;
  std::string body;
};

std::string Serialize(const HttpRequest& request);
std::string Serialize(const HttpResponse& response);

// Query-string value for `key` in a request target ("/trace?workflow=x"),
// as sent (no percent-decoding). The first `key=value` pair wins; "" when
// the target has no query, no such pair, or only a bare `key` with no '='.
std::string QueryParam(const std::string& target, const std::string& key);

// Reads one message from the stream (blocking). Request parsing shares the
// reactor's hardened incremental parser; bodies on this path are bounded at
// 64 MiB.
asbase::Result<HttpRequest> ReadRequest(ByteStream& stream);
asbase::Result<HttpResponse> ReadResponse(ByteStream& stream);

// One-shot reply channel for a request an HttpHandler took. Copies share
// the channel: the first call sends, later calls are ignored. Callable from
// any thread, also after HttpServer::Stop(), which drops the response. A
// request whose every copy is destroyed unanswered gets a 500, so a lost
// responder costs one error response instead of a hung connection.
class HttpResponder {
 public:
  using Sink = std::function<void(HttpResponse)>;
  explicit HttpResponder(Sink sink);

  void operator()(HttpResponse response) const;

 private:
  struct Channel;
  std::shared_ptr<Channel> channel_;
};

// Runs on an edge reactor thread and must not block: answer inline through
// `respond`, or hand `respond` to whatever finishes the work.
using HttpHandler =
    std::function<void(HttpRequest request, HttpResponder respond)>;

// Tuning for the edge reactor. The environment fallbacks let deployments
// (and benches) size the edge without code changes; explicit options win.
struct HttpServerOptions {
  // Number of epoll reactor threads. Each owns a disjoint set of
  // connections; the listener lives on reactor 0 and accepted connections
  // are dealt round-robin. [env ALLOY_EDGE_REACTORS]
  size_t reactors = 1;
  // Concurrent connection cap. Accepts past the cap answer 503 and close.
  // [env ALLOY_EDGE_MAX_CONNS]
  size_t max_connections = 4096;
  // Connections idle (no partial request, nothing in flight) longer than
  // this are reaped. 0 disables. [env ALLOY_EDGE_IDLE_TIMEOUT_MS]
  int64_t idle_timeout_ms = 60000;
  // Per-request parse limits (431/413 + close past them).
  // [env ALLOY_EDGE_MAX_BODY_BYTES for the body bound]
  size_t max_header_bytes = 64u << 10;
  size_t max_body_bytes = 8u << 20;
  // Per-connection backpressure: stop reading while this many parsed
  // requests await dispatch, or while more than max_buffered_out response
  // bytes await the socket.
  size_t max_pipeline_depth = 32;
  size_t max_buffered_out = 1u << 20;

  // Defaults with any ALLOY_EDGE_* environment overrides applied.
  static HttpServerOptions FromEnv();
};

namespace internal {
class EdgeReactor;      // src/http/server.cc
struct EdgeConnection;  // src/http/server.cc
}

// Epoll keep-alive HTTP server on a host TCP port (127.0.0.1).
class HttpServer {
 public:
  // port 0 picks a free port; see port() after Start().
  // The single-argument form applies HttpServerOptions::FromEnv().
  explicit HttpServer(HttpHandler handler);
  HttpServer(HttpHandler handler, HttpServerOptions options);
  ~HttpServer();

  asbase::Status Start(uint16_t port = 0);
  void Stop();
  uint16_t port() const { return port_; }

  // Live accepted connections (tests / introspection).
  size_t active_connections() const;

 private:
  friend class internal::EdgeReactor;
  friend struct internal::EdgeConnection;

  HttpHandler handler_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<size_t> active_connections_{0};
  std::atomic<size_t> accept_cursor_{0};  // round-robin reactor placement
  // Responses owed to clients: handled requests whose response hasn't
  // reached their reactor yet, plus connections holding unflushed bytes.
  // Stop() settles this to zero (bounded by a 5s cap) before tearing the
  // reactors down, so drain-time 503s actually reach their clients.
  std::atomic<int64_t> settle_debt_{0};
  std::vector<std::unique_ptr<internal::EdgeReactor>> reactors_;
};

// One-shot client against a host TCP server.
asbase::Result<HttpResponse> HttpCall(const std::string& host, uint16_t port,
                                      const HttpRequest& request);

// One-shot client over an established asnet connection.
asbase::Result<HttpResponse> HttpCallOver(asnet::TcpConnection& connection,
                                          const HttpRequest& request);

}  // namespace ashttp

#endif  // SRC_HTTP_HTTP_H_

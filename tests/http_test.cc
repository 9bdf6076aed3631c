// Tests for the HTTP layer over both transports (host sockets and the
// user-space netstack), plus the epoll edge reactor: keep-alive,
// pipelining, malformed-input hardening, connection cap, idle reap,
// partial writes, thread boundedness, and responder lifetime.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#include "src/http/http.h"
#include "src/http/parser.h"
#include "src/obs/metrics.h"

namespace ashttp {
namespace {

// In-memory ByteStream for parser tests.
class MemoryStream : public ByteStream {
 public:
  explicit MemoryStream(std::string data) : data_(std::move(data)) {}

  asbase::Result<size_t> Read(std::span<uint8_t> out) override {
    // Dribble bytes a few at a time to exercise incremental parsing.
    const size_t n = std::min({out.size(), data_.size() - pos_, size_t{7}});
    std::memcpy(out.data(), data_.data() + pos_, n);
    pos_ += n;
    return n;
  }
  asbase::Status Write(std::span<const uint8_t> data) override {
    written_.append(reinterpret_cast<const char*>(data.data()), data.size());
    return asbase::OkStatus();
  }
  const std::string& written() const { return written_; }

 private:
  std::string data_;
  size_t pos_ = 0;
  std::string written_;
};

TEST(HttpParseTest, RequestRoundTrip) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/invoke/wordcount";
  request.headers["x-workflow"] = "wc";
  request.body = "{\"input\":\"/data/in.txt\"}";

  MemoryStream stream(Serialize(request));
  auto parsed = ReadRequest(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->target, "/invoke/wordcount");
  EXPECT_EQ(parsed->headers.at("x-workflow"), "wc");
  EXPECT_EQ(parsed->body, request.body);
}

TEST(HttpParseTest, ResponseRoundTrip) {
  HttpResponse response;
  response.status = 404;
  response.reason = "Not Found";
  response.body = "no such workflow";
  MemoryStream stream(Serialize(response));
  auto parsed = ReadResponse(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->status, 404);
  EXPECT_EQ(parsed->reason, "Not Found");
  EXPECT_EQ(parsed->body, "no such workflow");
}

TEST(HttpParseTest, EmptyBodyWorks) {
  MemoryStream stream("GET /health HTTP/1.1\r\nhost: x\r\n\r\n");
  auto parsed = ReadRequest(stream);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->target, "/health");
  EXPECT_TRUE(parsed->body.empty());
}

TEST(HttpParseTest, MalformedRequestRejected) {
  MemoryStream stream("NONSENSE\r\n\r\n");
  EXPECT_FALSE(ReadRequest(stream).ok());
}

TEST(HttpParseTest, TruncatedBodyRejected) {
  MemoryStream stream(
      "POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\nonly a bit");
  EXPECT_EQ(ReadRequest(stream).status().code(),
            asbase::ErrorCode::kUnavailable);
}

// ------------------------------------------------------------ parser units

TEST(HttpParseTest, ContentLengthValidation) {
  EXPECT_EQ(*ParseContentLength("0", 1024), 0u);
  EXPECT_EQ(*ParseContentLength("123", 1024), 123u);
  EXPECT_EQ(*ParseContentLength("  42  ", 1024), 42u);
  EXPECT_EQ(ParseContentLength("banana", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseContentLength("-1", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseContentLength("1 2", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseContentLength("", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  // 20+ digits would overflow uint64 — rejected by length, not by wrapping.
  EXPECT_EQ(ParseContentLength("99999999999999999999", 1024).status().code(),
            asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParseContentLength("2048", 1024).status().code(),
            asbase::ErrorCode::kResourceExhausted);
}

TEST(HttpParseTest, ConnectionTokenListIsCaseInsensitive) {
  EXPECT_TRUE(HasConnectionToken("close", "close"));
  EXPECT_TRUE(HasConnectionToken("Close", "close"));
  EXPECT_TRUE(HasConnectionToken("CLOSE", "close"));
  EXPECT_TRUE(HasConnectionToken("Keep-Alive, Upgrade", "keep-alive"));
  EXPECT_TRUE(HasConnectionToken(" keep-alive ,close", "close"));
  EXPECT_FALSE(HasConnectionToken("closed", "close"));
  EXPECT_FALSE(HasConnectionToken("keep-alive", "close"));

  HttpRequest request;
  request.version = "HTTP/1.1";
  EXPECT_FALSE(WantsClose(request));  // 1.1 defaults to keep-alive
  request.headers["connection"] = "Close";
  EXPECT_TRUE(WantsClose(request));  // the seed compared case-sensitively
  request.headers.clear();
  request.version = "HTTP/1.0";
  EXPECT_TRUE(WantsClose(request));  // 1.0 defaults to close
  request.headers["connection"] = "Keep-Alive";
  EXPECT_FALSE(WantsClose(request));
}

TEST(HttpParseTest, IncrementalParserHandlesPipelinedDribble) {
  const std::string wire =
      "POST /a HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"
      "GET /b HTTP/1.1\r\nhost: x\r\n\r\n"
      "POST /c HTTP/1.1\r\ncontent-length: 2\r\n\r\nxy";
  RequestParser parser;
  std::vector<HttpRequest> requests;
  // One byte at a time: every head/body boundary is crossed mid-feed.
  for (char c : wire) {
    ASSERT_TRUE(parser.Feed(std::string_view(&c, 1), &requests).ok());
  }
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].target, "/a");
  EXPECT_EQ(requests[0].body, "abc");
  EXPECT_EQ(requests[1].target, "/b");
  EXPECT_TRUE(requests[1].body.empty());
  EXPECT_EQ(requests[2].target, "/c");
  EXPECT_EQ(requests[2].body, "xy");
  EXPECT_TRUE(parser.idle());
}

TEST(HttpParseTest, ParserPoisonsOnMalformedContentLength) {
  RequestParser parser;
  std::vector<HttpRequest> requests;
  auto status = parser.Feed(
      "POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n", &requests);
  EXPECT_EQ(status.code(), asbase::ErrorCode::kInvalidArgument);
  EXPECT_EQ(RequestParser::StatusForParseError(status), 400);
  // Poisoned: later feeds keep failing rather than resyncing mid-stream.
  EXPECT_FALSE(parser.Feed("GET / HTTP/1.1\r\n\r\n", &requests).ok());
  EXPECT_TRUE(requests.empty());
}

TEST(HttpParseTest, ParserLimitsMapToHttpStatuses) {
  RequestParser::Limits limits;
  limits.max_header_bytes = 64;
  limits.max_body_bytes = 16;
  {
    RequestParser parser(limits);
    std::vector<HttpRequest> requests;
    auto status = parser.Feed(
        "GET / HTTP/1.1\r\nx-pad: " + std::string(200, 'p') + "\r\n\r\n",
        &requests);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(RequestParser::StatusForParseError(status), 431);
  }
  {
    RequestParser parser(limits);
    std::vector<HttpRequest> requests;
    auto status = parser.Feed(
        "POST / HTTP/1.1\r\ncontent-length: 1000\r\n\r\n", &requests);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(RequestParser::StatusForParseError(status), 413);
  }
}

TEST(HttpParseTest, QueryParamMatchesWholeKeysFirstWins) {
  EXPECT_EQ(QueryParam("/trace", "workflow"), "");
  EXPECT_EQ(QueryParam("/trace?", "workflow"), "");
  EXPECT_EQ(QueryParam("/trace?workflow=wf", "workflow"), "wf");
  // A bare key carries no value; a later pair with '=' still matches.
  EXPECT_EQ(QueryParam("/trace?workflow", "workflow"), "");
  EXPECT_EQ(QueryParam("/trace?workflow&workflow=wf", "workflow"), "wf");
  // Keys match whole, never as a prefix of a longer or shorter key.
  EXPECT_EQ(QueryParam("/trace?workflows=a&workflow=b", "workflow"), "b");
  EXPECT_EQ(QueryParam("/trace?workflow=b", "work"), "");
  // A repeated key: the first pair wins, an empty value included.
  EXPECT_EQ(QueryParam("/flight?since=5&since=9", "since"), "5");
  EXPECT_EQ(QueryParam("/flight?since=&since=9", "since"), "");
  EXPECT_EQ(QueryParam("/flight?a=1&&since=7&", "since"), "7");
}

// ------------------------------------------------------------ reactor edge

uint64_t EdgeCounter(const std::string& name) {
  return asobs::Registry::Global().GetCounter(name).value();
}

// Raw keep-alive client against the reactor: hand-written wire in, parsed
// responses out, visibility into half-close and reaping.
class RawClient {
 public:
  explicit RawClient(uint16_t port, int rcvbuf_bytes = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (rcvbuf_bytes > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes));
    }
    timeval timeout{};
    timeout.tv_sec = 10;  // fail loudly instead of hanging the suite
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    int enable = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    stream_ = std::make_unique<HostStream>(fd_);  // owns + closes fd_
  }

  bool connected() const { return connected_; }

  void Send(const std::string& data) {
    ASSERT_TRUE(stream_
                    ->Write({reinterpret_cast<const uint8_t*>(data.data()),
                             data.size()})
                    .ok());
  }

  // Buffered response reader. ReadResponse() over-reads into the body and
  // drops trailing bytes, which loses pipelined responses that share a TCP
  // segment — so the raw client keeps its own carry-over buffer.
  asbase::Result<HttpResponse> ReadOne() {
    while (true) {
      const size_t end = inbuf_.find("\r\n\r\n");
      if (end != std::string::npos) {
        HttpResponse response;
        const std::string head = inbuf_.substr(0, end);
        const size_t sp1 = head.find(' ');
        response.status = std::atoi(head.c_str() + sp1 + 1);
        size_t body_len = 0;
        size_t pos = head.find("\r\n");
        while (pos != std::string::npos && pos + 2 < head.size()) {
          const size_t eol = std::min(head.find("\r\n", pos + 2), head.size());
          std::string line = head.substr(pos + 2, eol - pos - 2);
          for (char& c : line) {
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          }
          const size_t colon = line.find(':');
          if (colon != std::string::npos) {
            const std::string key = line.substr(0, colon);
            const std::string value = line.substr(line.find_first_not_of(
                " \t", colon + 1));
            response.headers[key] = value;
            if (key == "content-length") {
              body_len = std::stoul(value);
            }
          }
          pos = eol == head.size() ? std::string::npos : eol;
        }
        if (inbuf_.size() >= end + 4 + body_len) {
          response.body = inbuf_.substr(end + 4, body_len);
          inbuf_.erase(0, end + 4 + body_len);
          return response;
        }
      }
      uint8_t buffer[65536];
      auto n = stream_->Read(buffer);
      if (!n.ok()) {
        return n.status();
      }
      if (*n == 0) {
        return asbase::Unavailable("connection closed mid-response");
      }
      inbuf_.append(reinterpret_cast<char*>(buffer), *n);
    }
  }

  // True if the server closed the connection (EOF) before sending bytes.
  bool WaitClosed() {
    uint8_t byte;
    auto n = stream_->Read({&byte, 1});
    return n.ok() && *n == 0;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  // Closes with a reset instead of a FIN: the server sees the connection
  // die at once.
  void Abort() {
    linger reset{};
    reset.l_onoff = 1;
    reset.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    stream_.reset();
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::unique_ptr<HostStream> stream_;
  std::string inbuf_;  // bytes read past the last returned response
};

HttpServer EchoServer(HttpServerOptions options) {
  return HttpServer(
      [](HttpRequest request, HttpResponder respond) {
        HttpResponse response;
        response.body = "echo:" + request.body + " @" + request.target;
        respond(std::move(response));
      },
      options);
}

TEST(HttpEdgeTest, MalformedContentLengthReturns400AndServerSurvives) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t errors_before = EdgeCounter("alloy_edge_parse_errors_total");

  for (const std::string bad :
       {"banana", "99999999999999999999999999", "-4", "1e9"}) {
    RawClient client(server.port());
    ASSERT_TRUE(client.connected());
    client.Send("POST /invoke/x HTTP/1.1\r\ncontent-length: " + bad +
                "\r\n\r\n");
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok()) << bad;
    EXPECT_EQ(response->status, 400) << bad;
    EXPECT_TRUE(client.WaitClosed()) << bad;
  }
  EXPECT_GE(EdgeCounter("alloy_edge_parse_errors_total"), errors_before + 4);

  // The process (and the listener) survived the poison requests.
  HttpRequest request;
  request.method = "POST";
  request.target = "/run";
  request.body = "still alive";
  auto response = HttpCall("127.0.0.1", server.port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "echo:still alive @/run");
  server.Stop();
}

TEST(HttpEdgeTest, OversizedHeadersAndBodiesAreBounded) {
  HttpServerOptions options;
  options.max_header_bytes = 1024;
  options.max_body_bytes = 2048;
  HttpServer server = EchoServer(options);
  ASSERT_TRUE(server.Start(0).ok());

  {
    RawClient client(server.port());
    client.Send("GET / HTTP/1.1\r\nx-pad: " + std::string(4096, 'p') +
                "\r\n\r\n");
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 431);
    EXPECT_TRUE(client.WaitClosed());
  }
  {
    RawClient client(server.port());
    client.Send("POST / HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n");
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, 413);
    EXPECT_TRUE(client.WaitClosed());
  }
  server.Stop();
}

TEST(HttpEdgeTest, KeepAliveReusesOneConnection) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t accepts_before = EdgeCounter("alloy_edge_accepts_total");

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 5; ++i) {
    const std::string body = "ping" + std::to_string(i);
    client.Send("POST /kv HTTP/1.1\r\ncontent-length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body);
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_EQ(response->body, "echo:" + body + " @/kv");
  }
  EXPECT_EQ(EdgeCounter("alloy_edge_accepts_total"), accepts_before + 1);
  server.Stop();
}

TEST(HttpEdgeTest, PipelinedRequestsAnswerInOrder) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  RawClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string wire;
  for (int i = 0; i < 8; ++i) {
    wire += "GET /seq/" + std::to_string(i) + " HTTP/1.1\r\nhost: x\r\n\r\n";
  }
  client.Send(wire);  // all eight requests in one burst
  for (int i = 0; i < 8; ++i) {
    auto response = client.ReadOne();
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_EQ(response->body, "echo: @/seq/" + std::to_string(i));
  }
  server.Stop();
}

TEST(HttpEdgeTest, ConnectionCloseTokenIsCaseInsensitive) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  // "Connection: Close" (capitalized) must close — the seed compared the
  // raw value with == "close" and kept a dead keep-alive loop around.
  RawClient client(server.port());
  client.Send("GET /bye HTTP/1.1\r\nconnection: Close\r\n\r\n");
  auto response = client.ReadOne();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->headers.at("connection"), "close");
  EXPECT_TRUE(client.WaitClosed());

  // HTTP/1.0 without keep-alive defaults to close...
  RawClient old_client(server.port());
  old_client.Send("GET /old HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(old_client.ReadOne().ok());
  EXPECT_TRUE(old_client.WaitClosed());

  // ...but stays open when it asks for keep-alive.
  RawClient ka_client(server.port());
  ka_client.Send("GET /a HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n");
  ASSERT_TRUE(ka_client.ReadOne().ok());
  ka_client.Send("GET /b HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n");
  auto second = ka_client.ReadOne();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->body, "echo: @/b");
  server.Stop();
}

TEST(HttpEdgeTest, ConnectionCapAnswers503) {
  HttpServerOptions options;
  options.max_connections = 2;
  HttpServer server = EchoServer(options);
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t overflows_before = EdgeCounter("alloy_edge_overflows_total");

  RawClient first(server.port());
  RawClient second(server.port());
  // A round trip each guarantees both are registered before the third
  // connection reaches the accept path.
  first.Send("GET /1 HTTP/1.1\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(first.ReadOne().ok());
  second.Send("GET /2 HTTP/1.1\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(second.ReadOne().ok());
  EXPECT_EQ(server.active_connections(), 2u);

  RawClient third(server.port());
  ASSERT_TRUE(third.connected());  // TCP accepts; HTTP says no
  auto response = third.ReadOne();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 503);
  EXPECT_TRUE(third.WaitClosed());
  EXPECT_EQ(EdgeCounter("alloy_edge_overflows_total"), overflows_before + 1);

  // Slots free on close: a later connection gets in.
  first.ShutdownWrite();
  ASSERT_TRUE(first.WaitClosed());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() >= 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RawClient fourth(server.port());
  fourth.Send("GET /4 HTTP/1.1\r\nhost: x\r\n\r\n");
  auto ok_response = fourth.ReadOne();
  ASSERT_TRUE(ok_response.ok());
  EXPECT_EQ(ok_response->status, 200);
  server.Stop();
}

TEST(HttpEdgeTest, IdleConnectionsAreReaped) {
  HttpServerOptions options;
  options.idle_timeout_ms = 50;
  HttpServer server = EchoServer(options);
  ASSERT_TRUE(server.Start(0).ok());
  const uint64_t reaped_before = EdgeCounter("alloy_edge_reaped_total");

  RawClient client(server.port());
  client.Send("GET /warm HTTP/1.1\r\nhost: x\r\n\r\n");
  ASSERT_TRUE(client.ReadOne().ok());
  // Now go quiet; the reactor's reap tick should cut the connection.
  EXPECT_TRUE(client.WaitClosed());
  EXPECT_GE(EdgeCounter("alloy_edge_reaped_total"), reaped_before + 1);
  server.Stop();
}

TEST(HttpEdgeTest, MidBodyDisconnectLeavesServerHealthy) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  {
    RawClient client(server.port());
    client.Send("POST /part HTTP/1.1\r\ncontent-length: 1000\r\n\r\nonly");
    // Drop the connection with 996 body bytes owed.
  }
  HttpRequest request;
  request.target = "/after";
  auto response = HttpCall("127.0.0.1", server.port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  server.Stop();
}

TEST(HttpEdgeTest, PartialWritesDeliverLargeResponse) {
  // A multi-megabyte response cannot fit the kernel send buffer, so the
  // reactor must park the flush on EAGAIN, arm EPOLLOUT, and resume — while
  // the client drains through a deliberately tiny receive buffer.
  const std::string big(6u << 20, 'z');
  HttpServer server(
      [&big](HttpRequest, HttpResponder respond) {
        HttpResponse response;
        response.body = big;
        respond(std::move(response));
      },
      HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  RawClient client(server.port(), /*rcvbuf_bytes=*/4096);
  client.Send("GET /big HTTP/1.1\r\nhost: x\r\n\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it park
  auto response = client.ReadOne();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->body.size(), big.size());
  EXPECT_EQ(response->body, big);
  server.Stop();
}

TEST(HttpEdgeTest, ResponderCalledAfterStopIsDropped) {
  std::mutex mutex;
  std::optional<HttpResponder> kept;
  std::atomic<bool> handled{false};
  auto server = std::make_unique<HttpServer>(
      [&](HttpRequest, HttpResponder respond) {
        std::lock_guard<std::mutex> lock(mutex);
        kept.emplace(std::move(respond));
        handled = true;
      },
      HttpServerOptions{});
  ASSERT_TRUE(server->Start(0).ok());
  {
    RawClient client(server->port());
    client.Send("GET /held HTTP/1.1\r\nhost: x\r\n\r\n");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!handled && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(handled);
    client.Abort();
  }
  // The reset connection is owed nothing, so Stop() does not wait out its
  // 5 s settle cap for the held request.
  const auto stop_start = std::chrono::steady_clock::now();
  server->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start,
            std::chrono::seconds(4));
  server.reset();

  // The responder outlived its connection, reactor and server: answering
  // (twice — the second call is ignored) and destroying it touch none of
  // them. ASan reports any use after free here.
  std::thread late([&] {
    std::lock_guard<std::mutex> lock(mutex);
    HttpResponse response;
    response.body = "too late";
    (*kept)(response);
    (*kept)(response);
    kept.reset();
  });
  late.join();
}

TEST(HttpEdgeTest, DroppedResponderAnswers500) {
  HttpServer server([](HttpRequest, HttpResponder) {}, HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());
  RawClient client(server.port());
  client.Send("GET /lost HTTP/1.1\r\nhost: x\r\n\r\n");
  auto response = client.ReadOne();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 500);
  // The connection stays usable.
  client.Send("GET /lost2 HTTP/1.1\r\nhost: x\r\n\r\n");
  auto second = client.ReadOne();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status, 500);
  server.Stop();
}

size_t CountOwnThreads() {
  size_t count = 0;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return 0;
  }
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++count;
    }
  }
  ::closedir(dir);
  return count;
}

TEST(HttpEdgeTest, ResidentThreadsStayBoundedUnder1kConnections) {
  HttpServer server = EchoServer(HttpServerOptions{});
  ASSERT_TRUE(server.Start(0).ok());

  HttpRequest request;
  request.target = "/t";
  ASSERT_TRUE(HttpCall("127.0.0.1", server.port(), request).ok());
  const size_t threads_warm = CountOwnThreads();
  ASSERT_GT(threads_warm, 0u);

  // The seed kept one joinable thread per connection ever served, so 1k
  // sequential connections grew the thread table by 1k. The reactor must
  // hold the line exactly.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(HttpCall("127.0.0.1", server.port(), request).ok()) << i;
  }
  EXPECT_EQ(CountOwnThreads(), threads_warm);
  server.Stop();
}

TEST(HttpServerTest, ServesOverHostSocket) {
  HttpServer server([](HttpRequest request, HttpResponder respond) {
    HttpResponse response;
    response.body = "echo:" + request.body + " @" + request.target;
    respond(std::move(response));
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_NE(server.port(), 0);

  HttpRequest request;
  request.method = "POST";
  request.target = "/run";
  request.body = "payload";
  auto response = HttpCall("127.0.0.1", server.port(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "echo:payload @/run");
  server.Stop();
}

TEST(HttpServerTest, ManySequentialCalls) {
  HttpServer server([](HttpRequest request, HttpResponder respond) {
    HttpResponse response;
    response.body = std::move(request.body);
    respond(std::move(response));
  });
  ASSERT_TRUE(server.Start(0).ok());
  for (int i = 0; i < 20; ++i) {
    HttpRequest request;
    request.method = "POST";
    request.body = std::string(static_cast<size_t>(i * 100), 'x');
    auto response = HttpCall("127.0.0.1", server.port(), request);
    ASSERT_TRUE(response.ok()) << i;
    EXPECT_EQ(response->body.size(), static_cast<size_t>(i * 100));
  }
  server.Stop();
}

TEST(HttpServerTest, CallToDeadPortFails) {
  HttpRequest request;
  EXPECT_FALSE(HttpCall("127.0.0.1", 1, request).ok());
}

TEST(HttpOverNetstackTest, RequestResponseOverUserSpaceTcp) {
  asnet::VirtualSwitch fabric;
  auto server_port = fabric.Attach(asnet::MakeAddr(10, 0, 0, 1));
  auto client_port = fabric.Attach(asnet::MakeAddr(10, 0, 0, 2));
  asnet::NetStack server_stack(server_port);
  asnet::NetStack client_stack(client_port);

  auto listener = server_stack.Listen(80);
  ASSERT_TRUE(listener.ok());
  std::thread server_thread([&] {
    auto connection = (*listener)->Accept();
    ASSERT_TRUE(connection.ok());
    AsnetStream stream(connection->get());
    auto request = ReadRequest(stream);
    ASSERT_TRUE(request.ok());
    HttpResponse response;
    response.body = "hello " + request->target;
    std::string wire = Serialize(response);
    ASSERT_TRUE(stream
                    .Write({reinterpret_cast<const uint8_t*>(wire.data()),
                            wire.size()})
                    .ok());
    (*connection)->Close();
  });

  auto connection = client_stack.Connect(server_stack.addr(), 80);
  ASSERT_TRUE(connection.ok());
  HttpRequest request;
  request.target = "/from-libos";
  auto response = HttpCallOver(**connection, request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->body, "hello /from-libos");
  server_thread.join();
}

}  // namespace
}  // namespace ashttp
